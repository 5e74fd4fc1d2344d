import numpy as np
import pytest

from anchorsynth.synthworld import OracleDenoiser, make_codebook
from anchorsynth.tokenflow import (
    Codebook,
    FlowSchedule,
    TokenSeq,
    corrupt,
    corruption_dist,
    denoise_loss,
    jump_rates,
    metric_distance,
    sample,
    step,
    training_objective,
)


def schedule(**kw):
    return FlowSchedule(**kw)


# ----------------------------------------------------------- metric distance


def test_metric_distance_self_is_zero():
    cb = Codebook(np.random.default_rng(0).normal(size=(6, 4)))
    for i in range(6):
        assert metric_distance(cb, i, i) == 0.0


def test_metric_distance_orthogonal_and_antiparallel():
    cb = Codebook(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
    # orthogonal: (2 - 0)^2; antiparallel: (2 + 2)^2
    assert metric_distance(cb, 0, 1) == pytest.approx(4.0, abs=1e-12)
    assert metric_distance(cb, 0, 2) == pytest.approx(16.0, abs=1e-12)


def test_metric_distance_symmetric():
    cb = Codebook(np.random.default_rng(1).normal(size=(8, 5)))
    for i in range(8):
        for j in range(8):
            assert metric_distance(cb, i, j) == metric_distance(cb, j, i)


def test_codebook_rejects_zero_norm_row():
    rows = np.ones((3, 4))
    rows[1] = 0.0
    with pytest.raises(ValueError, match="zero-norm"):
        Codebook(rows)


def test_codebook_is_a_frozen_value():
    emb = np.random.default_rng(3).normal(size=(5, 3))
    cb = Codebook(emb)
    before = cb.distances.copy()
    emb[0] = emb[1]  # the caller's array is not the codebook's
    np.testing.assert_array_equal(cb.distances, before)
    for array in (cb.embeddings, cb.distances):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 1] = 0.0
    np.testing.assert_array_equal(cb.distances, Codebook(cb.embeddings).distances)


def test_codebook_metric_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        Codebook(np.eye(3), _distances=np.zeros((3, 3)))


# ------------------------------------------------------------------ schedule


def test_beta_at_zero_and_half():
    sched = schedule()
    assert sched.beta(0.0) == 0.0
    # (0.5 / 0.5)^0.9 = 1, times scale
    assert sched.beta(0.5) == pytest.approx(3.0, abs=1e-12)


def test_beta_monotone():
    sched = schedule()
    ts = np.linspace(0.0, 0.99, 200)
    vals = [sched.beta(t) for t in ts]
    assert np.all(np.diff(vals) > 0)


def test_beta_domain_errors():
    sched = schedule()
    with pytest.raises(ValueError):
        sched.beta(1.0)
    with pytest.raises(ValueError):
        sched.beta_prime(0.0)
    with pytest.raises(ValueError):
        sched.beta_prime(1.0)


def test_beta_prime_matches_central_differences():
    sched = schedule()
    h = 1e-6
    for t in np.arange(0.1, 0.95, 0.1):
        fd = (sched.beta(t + h) - sched.beta(t - h)) / (2 * h)
        assert sched.beta_prime(t) == pytest.approx(fd, rel=1e-5)


# ------------------------------------------------------------ corruption_dist


def test_corruption_uniform_at_t_zero():
    cb = Codebook(np.random.default_rng(2).normal(size=(7, 3)))
    np.testing.assert_allclose(corruption_dist(cb, 2, 0.0, schedule()), np.full(7, 1 / 7), atol=1e-15)


def test_corruption_uniform_when_all_distances_equal():
    # identical embedding rows: every distance is 0, so q_t is uniform at any t
    cb = Codebook(np.tile([0.3, -0.7, 0.1], (5, 1)))
    sched = schedule()
    for t in (0.0, 0.3, 0.9, sched.t_max):
        np.testing.assert_allclose(corruption_dist(cb, 1, t, sched), np.full(5, 0.2), atol=1e-15)


def test_corruption_concentrates_on_clean_at_t_max():
    cb = make_codebook(16, 8, 0.3, seed=3)
    sched = schedule()
    for x1 in range(16):
        q = corruption_dist(cb, x1, sched.t_max, sched)
        assert np.argmax(q) == x1
        assert q[x1] > 0.999


def test_corruption_normalization_random_triples():
    rng = np.random.default_rng(4)
    sched = schedule()
    for _ in range(200):
        cb = Codebook(rng.normal(size=(int(rng.integers(2, 12)), int(rng.integers(2, 8)))))
        t = float(rng.uniform(0, sched.t_max))
        q = corruption_dist(cb, int(rng.integers(cb.size)), t, sched)
        assert abs(q.sum() - 1.0) <= 1e-9
        assert np.all(q >= 0)


def test_corruption_clean_mass_nondecreasing_in_t():
    rng = np.random.default_rng(5)
    sched = schedule()
    grid = np.linspace(0.0, sched.t_max, 50)
    for _ in range(20):
        cb = Codebook(rng.normal(size=(10, 6)))
        x1 = int(rng.integers(10))
        mass = np.array([corruption_dist(cb, x1, t, sched)[x1] for t in grid])
        assert np.all(np.diff(mass) >= 0)


# ----------------------------------------------------------------- corrupt


def test_corrupt_at_t_max_reproduces_clean():
    cb = make_codebook(16, 8, 0.3, seed=6)
    sched = schedule()
    clean = TokenSeq(np.random.default_rng(7).integers(0, 16, size=10_000))
    out = corrupt(clean, sched.t_max, cb, sched, np.random.default_rng(8))
    assert np.mean(out.ids == clean.ids) >= 0.99


def test_corrupt_at_t_zero_is_uniform():
    # chi-square style check: per-token counts within 3 sigma of the
    # multinomial expectation over 10k draws
    v = 8
    cb = make_codebook(v, 6, 0.3, seed=9)
    clean = TokenSeq(np.zeros(10_000, dtype=np.int64))
    out = corrupt(clean, 0.0, cb, schedule(), np.random.default_rng(10))
    counts = np.bincount(out.ids, minlength=v)
    expect = 10_000 / v
    sigma = np.sqrt(10_000 * (1 / v) * (1 - 1 / v))
    assert np.all(np.abs(counts - expect) <= 3 * sigma)


def test_corrupt_deterministic_given_seed():
    cb = make_codebook(12, 6, 0.3, seed=11)
    sched = schedule()
    clean = TokenSeq(np.arange(12).repeat(3))
    a = corrupt(clean, 0.4, cb, sched, np.random.default_rng(99))
    b = corrupt(clean, 0.4, cb, sched, np.random.default_rng(99))
    assert np.array_equal(a.ids, b.ids)


def test_corrupt_empirical_matches_corruption_dist():
    cb = make_codebook(6, 4, 0.3, seed=12)
    sched = schedule()
    t = 0.5
    clean = TokenSeq(np.full(20_000, 3, dtype=np.int64))
    out = corrupt(clean, t, cb, sched, np.random.default_rng(13))
    counts = np.bincount(out.ids, minlength=6) / 20_000
    q = corruption_dist(cb, 3, t, sched)
    sigma = np.sqrt(q * (1 - q) / 20_000)
    assert np.all(np.abs(counts - q) <= 4 * sigma + 1e-12)


# -------------------------------------------------------------- denoise_loss


def test_denoise_loss_vanishes_with_margin():
    length, v = 12, 10
    clean = TokenSeq(np.arange(length) % v)
    logits = np.zeros((length, v))
    logits[np.arange(length), clean.ids] = 20.0
    assert denoise_loss(logits, clean) < 1e-6 * length


def test_denoise_loss_uniform_logits():
    length, v = 9, 17
    clean = TokenSeq(np.zeros(length, dtype=np.int64))
    assert denoise_loss(np.zeros((length, v)), clean) == pytest.approx(length * np.log(v), rel=1e-12)


def test_denoise_loss_single_binary_position():
    assert denoise_loss(np.zeros((1, 2)), TokenSeq(np.array([0]))) == pytest.approx(np.log(2), rel=1e-12)


def test_denoise_loss_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        denoise_loss(np.array([[np.inf, 0.0]]), TokenSeq(np.array([0])))


# -------------------------------------------------------- training_objective


@pytest.mark.parametrize(
    "ce,sup,expect", [(1.0, 0.0, 1.0), (0.0, 2.0, 0.6), (1.5, 1.0, 1.8)]
)
def test_training_objective_weighted_sum(ce, sup, expect):
    assert training_objective(ce, sup, 0.3) == pytest.approx(expect, abs=1e-15)


# ---------------------------------------------------------------- jump_rates


def test_jump_rates_zero_when_current_is_proposal():
    cb = make_codebook(8, 5, 0.3, seed=14)
    rates = jump_rates(cb, 3, 3, 0.5, schedule())
    assert not rates.any()


def test_jump_rates_zero_for_farther_candidates():
    cb = make_codebook(8, 5, 0.3, seed=15)
    sched = schedule()
    current, proposal = 2, 6
    rates = jump_rates(cb, current, proposal, 0.5, sched)
    d_cur = metric_distance(cb, current, proposal)
    for i in range(8):
        if metric_distance(cb, i, proposal) >= d_cur:
            assert rates[i] == 0.0
        else:
            assert rates[i] > 0.0


def test_jump_rates_hand_built_three_token_codebook():
    # embeddings at 0, 60 and 90 degrees: distances from token 0 are 0, 1, 4
    cb = Codebook(np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2], [0.0, 1.0]]))
    sched = schedule()
    t = 0.5
    np.testing.assert_allclose(cb.distances[:, 0], [0.0, 1.0, 4.0], atol=1e-12)

    rates = jump_rates(cb, 2, 0, t, sched)
    # direct scalar evaluation of q * beta' * positive part
    beta = sched.scale * (t / (1 - t)) ** sched.exponent
    weights = np.exp(-beta * np.array([0.0, 1.0, 4.0]))
    q = weights / weights.sum()
    bp = sched.scale * sched.exponent * (t / (1 - t)) ** (sched.exponent - 1) / (1 - t) ** 2
    expect = q * bp * np.array([4.0, 3.0, 0.0])
    np.testing.assert_allclose(rates, expect, rtol=1e-12)


def test_jump_rates_exhaustive_zero_set():
    rng = np.random.default_rng(16)
    sched = schedule()
    for v in (2, 4, 8):
        cb = Codebook(rng.normal(size=(v, 5)))
        for t in (0.1, 0.5, 0.9):
            for proposal in range(v):
                for current in range(v):
                    rates = jump_rates(cb, current, proposal, t, sched)
                    d_cur = cb.distances[current, proposal]
                    farther = cb.distances[:, proposal] >= d_cur
                    assert np.array_equal(rates == 0.0, farther)
                    assert np.all(rates >= 0.0)


def test_one_step_contraction_in_expectation():
    # exact expectation over the rate distribution decreases the metric
    # distance to the clean token for every state
    rng = np.random.default_rng(17)
    sched = schedule()
    h = 0.02
    for v in (3, 5, 8):
        cb = Codebook(rng.normal(size=(v, 4)))
        for t in (0.2, 0.6, 0.9):
            bp = sched.beta_prime(t)
            for clean in range(v):
                for current in range(v):
                    rates = jump_rates(cb, current, clean, t, sched)
                    lam = rates.sum()
                    d_now = cb.distances[current, clean]
                    if lam == 0.0:
                        continue
                    p_move = 1.0 - np.exp(-h * lam)
                    dest_mean = float(rates @ cb.distances[:, clean] / lam)
                    expect = (1 - p_move) * d_now + p_move * dest_mean
                    assert expect <= d_now + 1e-15


# ---------------------------------------------------------------------- step


def test_step_identity_when_rates_vanish():
    cb = make_codebook(8, 5, 0.3, seed=18)
    sched = schedule()
    ids = TokenSeq(np.arange(8))
    out = step(ids, ids, 0.5, 0.1, cb, sched, np.random.default_rng(19))
    assert np.array_equal(out.ids, ids.ids)


def test_step_small_h_rarely_updates():
    # with rates bounded by 100, h = 1e-6 keeps the move fraction tiny
    cb = make_codebook(16, 8, 0.3, seed=20)
    sched = schedule()
    t = 0.35
    rng = np.random.default_rng(21)
    current = TokenSeq(rng.integers(0, 16, size=100_000))
    proposal = TokenSeq(rng.integers(0, 16, size=100_000))
    lams = np.array(
        [jump_rates(cb, c, p, t, sched).sum() for c in range(16) for p in range(16)]
    )
    assert lams.max() <= 100.0
    out = step(current, proposal, t, 1e-6, cb, sched, rng)
    assert np.mean(out.ids != current.ids) < 1e-3


def test_step_update_probability_binomial():
    # single fixed position replicated: empirical move rate vs 1 - exp(-h*lam)
    cb = Codebook(np.array([[1.0, 0.0], [0.0, 1.0]]))
    sched = schedule()
    t, h = 0.5, 0.05
    lam = jump_rates(cb, 1, 0, t, sched).sum()
    p_theory = 1.0 - np.exp(-h * lam)
    assert 0.05 < p_theory < 0.95

    trials = 10_000
    current = TokenSeq(np.ones(trials, dtype=np.int64))
    proposal = TokenSeq(np.zeros(trials, dtype=np.int64))
    out = step(current, proposal, t, h, cb, sched, np.random.default_rng(22))
    moved = np.mean(out.ids == 0)
    sigma = np.sqrt(p_theory * (1 - p_theory) / trials)
    assert abs(moved - p_theory) <= 3 * sigma


def test_step_destination_distribution_matches_rates():
    rng = np.random.default_rng(23)
    cb = Codebook(rng.normal(size=(5, 4)))
    sched = schedule()
    t, h = 0.7, 5.0  # large h so nearly every position moves
    rates = jump_rates(cb, 4, 0, t, sched)
    lam = rates.sum()
    assert lam > 0
    trials = 20_000
    out = step(
        TokenSeq(np.full(trials, 4, dtype=np.int64)),
        TokenSeq(np.zeros(trials, dtype=np.int64)),
        t,
        h,
        cb,
        sched,
        np.random.default_rng(24),
    )
    moved = out.ids[out.ids != 4]
    freq = np.bincount(moved, minlength=5) / moved.size
    expect = rates / lam
    sigma = np.sqrt(expect * (1 - expect) / moved.size)
    assert np.all(np.abs(freq - expect) <= 4 * sigma + 1e-12)


# -------------------------------------------------------------------- sample


def test_sample_oracle_denoiser_converges():
    cb = make_codebook(32, 16, 0.3, seed=25)
    sched = schedule(steps=64)
    matches = []
    for seed in range(20):
        clean = TokenSeq(np.random.default_rng(1000 + seed).integers(0, 32, size=16))
        den = OracleDenoiser(clean, 32, 0.0, seed=2000 + seed)
        out = sample(den, 16, cb, sched, rng=np.random.default_rng(seed))
        matches.append(np.mean(out.ids == clean.ids))
    assert np.mean(matches) >= 0.95


def test_sample_single_step_tiny_h_stays_random():
    cb = make_codebook(32, 16, 0.3, seed=26)
    sched = schedule(steps=1)
    clean = TokenSeq(np.random.default_rng(27).integers(0, 32, size=16))
    den = OracleDenoiser(clean, 32, 0.0, seed=28)
    matches = []
    for seed in range(200):
        out = sample(den, 16, cb, sched, rng=np.random.default_rng(seed), h=1e-12)
        matches.append(np.mean(out.ids == clean.ids))
    mean = np.mean(matches)
    sigma = np.sqrt((1 / 32) * (1 - 1 / 32) / (200 * 16))
    assert abs(mean - 1 / 32) <= 4 * sigma


def test_sample_deterministic_given_seed():
    cb = make_codebook(16, 8, 0.3, seed=29)
    sched = schedule(steps=16)
    clean = TokenSeq(np.random.default_rng(30).integers(0, 16, size=12))
    outs = []
    traces = []
    for _ in range(2):
        den = OracleDenoiser(clean, 16, 0.3, seed=31)
        trace = []
        outs.append(sample(den, 12, cb, sched, rng=np.random.default_rng(32), trace=trace))
        traces.append(trace)
    assert np.array_equal(outs[0].ids, outs[1].ids)
    assert traces[0] == traces[1]


def test_sample_accepts_logits_denoiser():
    cb = make_codebook(8, 6, 0.3, seed=33)
    sched = schedule(steps=32)
    clean = np.random.default_rng(34).integers(0, 8, size=10)

    class LogitsOracle:
        def predict(self, tokens, t, context=None):
            logits = np.zeros((10, 8))
            logits[np.arange(10), clean] = 10.0
            return logits

    out = sample(LogitsOracle(), 10, cb, sched, rng=np.random.default_rng(35))
    assert np.mean(out.ids == clean) >= 0.9


def test_sample_rejects_wrong_length_denoiser():
    cb = make_codebook(8, 6, 0.3, seed=36)

    class Bad:
        def predict(self, tokens, t, context=None):
            return np.zeros(3, dtype=np.int64)

    with pytest.raises(ValueError, match="expected 10"):
        sample(Bad(), 10, cb, schedule(steps=2), rng=np.random.default_rng(37))


def test_sample_trace_rows_are_consistent():
    cb = make_codebook(8, 6, 0.3, seed=38)
    sched = schedule(steps=8)
    clean = TokenSeq(np.random.default_rng(39).integers(0, 8, size=6))
    trace = []
    sample(OracleDenoiser(clean, 8, 0.0, seed=40), 6, cb, sched,
           rng=np.random.default_rng(41), trace=trace)
    assert [r.step for r in trace] == list(range(1, 9))
    assert trace[-1].t == pytest.approx(sched.t_max)
    assert all(0 <= r.updates <= 6 for r in trace)
