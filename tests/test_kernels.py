"""The numpy sampling kernels against plain-Python loop references.

The references accumulate each row left to right with IEEE add/multiply/
compare only, as ``np.cumsum`` does, so the kernels must match them bit for
bit, and the sampler must draw the same ids with either. The sampler step,
which computes only live rows, must also match the full-matrix step that
runs both kernels on every position.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorsynth import _kernels, tokenflow
from anchorsynth.synthworld import OracleDenoiser, make_codebook
from anchorsynth.tokenflow import Codebook, FlowSchedule, TokenSeq, corrupt, sample


def reference_rate_rows(current, proposal, distances, corruption):
    n, v = corruption.shape
    rates = np.zeros((n, v))
    totals = np.zeros(n)
    for i in range(n):
        dxp = distances[current[i], proposal[i]]
        s = 0.0
        for j in range(v):
            gap = dxp - distances[j, proposal[i]]
            if gap > 0.0:
                r = corruption[i, j] * gap
                rates[i, j] = r
                s += r
        totals[i] = s
    return rates, totals


def reference_weighted_pick(weights, uniforms):
    n, v = weights.shape
    out = np.zeros(n, dtype=np.int64)
    for i in range(n):
        total = 0.0
        last = 0
        found = False
        for j in range(v):
            w = weights[i, j]
            if w > 0.0:
                last = j
                found = True
            total += w
        if not found:
            continue
        thr = uniforms[i] * total
        dest = last
        s = 0.0
        for j in range(v):
            s += weights[i, j]
            if s > thr:
                dest = j
                break
        out[i] = dest
    return out


def random_rate_inputs(rng, n=64, v=24):
    cb = make_codebook(v, 8, 0.2, seed=int(rng.integers(1 << 30)))
    current = rng.integers(0, v, size=n)
    proposal = rng.integers(0, v, size=n)
    corruption = rng.random((n, v))
    corruption /= corruption.sum(axis=1, keepdims=True)
    return current, proposal, cb.distances, corruption


def test_rate_rows_matches_reference_bitwise():
    rng = np.random.default_rng(0)
    for _ in range(10):
        args = random_rate_inputs(rng)
        rates, totals = _kernels.rate_rows(*args)
        ref_rates, ref_totals = reference_rate_rows(*args)
        assert np.array_equal(rates, ref_rates)
        assert np.array_equal(totals, ref_totals)


def test_weighted_pick_matches_reference_bitwise():
    rng = np.random.default_rng(1)
    for _ in range(10):
        weights = rng.random((128, 16))
        weights[rng.random((128, 16)) < 0.5] = 0.0  # plenty of zero entries
        weights[3] = 0.0  # a fully dead row
        uniforms = rng.random(128)
        ids = _kernels.weighted_pick(weights, uniforms)
        assert np.array_equal(ids, reference_weighted_pick(weights, uniforms))
        assert ids[3] == 0


@pytest.mark.parametrize(
    "weights, u",
    [
        # u close to 1 exercises the last-positive-index guard
        ([[0.25, 0.0, 0.75, 0.0], [0.0, 1.0, 0.0, 0.0]], 1.0 - 1e-16),
        # u = 0 puts the threshold on the running sum of leading zero weights
        ([[0.0, 0.0, 0.5, 0.5], [0.0, 1.0, 0.0, 0.0]], 0.0),
    ],
)
def test_weighted_pick_extreme_uniforms(weights, u):
    weights = np.array(weights)
    uniforms = np.full(2, u)
    ids = _kernels.weighted_pick(weights, uniforms)
    assert np.array_equal(ids, reference_weighted_pick(weights, uniforms))
    assert ids.tolist() == [2, 1]


def test_corrupt_matches_reference_kernels(monkeypatch):
    cb = make_codebook(20, 10, 0.2, seed=5)
    sched = FlowSchedule()
    clean = TokenSeq(np.random.default_rng(6).integers(0, 20, size=500))
    ids = corrupt(clean, 0.5, cb, sched, np.random.default_rng(7)).ids
    monkeypatch.setattr(_kernels, "weighted_pick", reference_weighted_pick)
    ref = corrupt(clean, 0.5, cb, sched, np.random.default_rng(7)).ids
    assert np.array_equal(ids, ref)


def test_sample_matches_reference_kernels(monkeypatch):
    cb = make_codebook(32, 16, 0.3, seed=8)
    sched = FlowSchedule(steps=64)
    clean = TokenSeq(np.random.default_rng(9).integers(0, 32, size=16))

    def run():
        den = OracleDenoiser(clean, 32, 0.2, seed=10)
        return sample(den, 16, cb, sched, rng=np.random.default_rng(11)).ids

    ids = run()
    monkeypatch.setattr(_kernels, "rate_rows", reference_rate_rows)
    monkeypatch.setattr(_kernels, "weighted_pick", reference_weighted_pick)
    assert np.array_equal(ids, run())


def test_weighted_pick_dead_rows_return_zero():
    weights = np.zeros((3, 5))
    ids = _kernels.weighted_pick(weights, np.array([0.1, 0.5, 0.99]))
    assert ids.tolist() == [0, 0, 0]


def test_weighted_pick_matches_searchsorted_oracle():
    rng = np.random.default_rng(12)
    weights = rng.random((200, 12))
    uniforms = rng.random(200)
    ids = _kernels.weighted_pick(weights, uniforms)
    for row in range(200):
        cdf = np.cumsum(weights[row])
        expect = int(np.searchsorted(cdf, uniforms[row] * cdf[-1], side="right"))
        assert ids[row] == min(expect, 11)


def reference_corruption_matrix(cb, t, sched):
    """Every corruption row at once: row c is q_t(. | c), shape (V, V)."""
    logits = -sched.beta(t) * cb.distances
    logits -= logits.max(axis=1, keepdims=True)
    num = np.exp(logits)
    return num / num.sum(axis=1, keepdims=True)


def reference_step_ids(ids, proposal, t, h, cb, sched, rng):
    """The full-matrix step: both kernels on all L rows, masked at the end."""
    corruption = reference_corruption_matrix(cb, t, sched)[proposal]
    rates, totals = _kernels.rate_rows(ids, proposal, cb.distances, corruption)
    u = rng.random((ids.shape[0], 2))
    p_move = -np.expm1(-h * sched.beta_prime(t) * totals)
    dest = _kernels.weighted_pick(rates, u[:, 1])
    return np.where((totals > 0.0) & (u[:, 0] < p_move), dest, ids)


def assert_step_matches_reference(ids, proposal, t, h, cb, seed=0):
    """Equal ids and an equal generator state after one step; returns the ids."""
    sched = FlowSchedule()
    before = ids.copy()
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    out = tokenflow._step_ids(ids, proposal, t, h, cb, sched, rng)
    ref = reference_step_ids(ids, proposal, t, h, cb, sched, ref_rng)
    assert np.array_equal(out, ref)
    assert out.dtype == ref.dtype
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.array_equal(ids, before)
    return out


def mixed_step_inputs(v, length, seed, dead_fraction=0.5):
    """Random ids and a proposal that equals them at about ``dead_fraction``."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, v, size=length)
    proposal = np.where(rng.random(length) < dead_fraction, ids, rng.integers(0, v, size=length))
    return ids, proposal


@pytest.mark.parametrize("v", [4, 32, 256])
@pytest.mark.parametrize("length", [1, 16, 300])
def test_step_ids_matches_full_matrix_step(v, length):
    cb = make_codebook(v, 16, 0.1, seed=v)
    for seed in range(4):
        ids, proposal = mixed_step_inputs(v, length, seed)
        for t in (0.05, 0.5, FlowSchedule().t_max):
            assert_step_matches_reference(ids, proposal, t, 0.5, cb, seed)


def test_step_ids_all_dead_step_draws_the_full_block():
    cb = make_codebook(32, 16, 0.2, seed=1)
    ids = np.random.default_rng(2).integers(0, 32, size=40)
    out = assert_step_matches_reference(ids, ids.copy(), 0.5, 0.5, cb)
    assert np.array_equal(out, ids)


def test_step_ids_large_h_moves_every_live_position():
    cb = make_codebook(32, 16, 0.2, seed=3)
    ids, proposal = mixed_step_inputs(32, 300, seed=4)
    out = assert_step_matches_reference(ids, proposal, 0.5, 1e6, cb)
    live = ids != proposal
    assert live.any()
    # every move lands strictly closer to the proposal, so no live id stays
    assert np.all(out[live] != ids[live])
    assert np.array_equal(out[~live], ids[~live])


def test_step_ids_live_position_with_zero_total_rate_stays():
    # rows 0 and 1 are parallel: distance 0, so a live position between them
    # has no strictly closer candidate and total rate 0
    cb = Codebook(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    ids = np.array([1, 0, 2, 3, 2])
    proposal = np.array([0, 1, 0, 0, 2])
    _, totals = _kernels.rate_rows(ids, proposal, cb.distances, np.full((5, 4), 0.25))
    assert totals[:2].tolist() == [0.0, 0.0]
    assert np.all(totals[2:4] > 0.0)
    out = assert_step_matches_reference(ids, proposal, 0.5, 1e6, cb)
    assert out[:2].tolist() == [1, 0]
    assert out[4] == 2
    assert np.all(out[2:4] != ids[2:4])


@settings(max_examples=40, deadline=None)
@given(
    codebook_seed=st.integers(0, 2**31 - 1),
    t=st.floats(1e-3, FlowSchedule().t_max),
    h=st.floats(1e-4, 1e4),
    length=st.integers(1, 300),
    dead_fraction=st.floats(0.0, 1.0),
)
def test_step_ids_matches_full_matrix_step_property(codebook_seed, t, h, length, dead_fraction):
    cb = make_codebook(24, 12, 0.2, seed=codebook_seed)
    ids, proposal = mixed_step_inputs(24, length, codebook_seed + 1, dead_fraction)
    assert_step_matches_reference(ids, proposal, t, h, cb, seed=codebook_seed + 2)


@pytest.mark.parametrize("v", [4, 32, 256])
def test_corrupt_matches_full_matrix_reference(v):
    cb = make_codebook(v, 16, 0.1, seed=v)
    sched = FlowSchedule()
    clean = TokenSeq(np.random.default_rng(13).integers(0, v, size=300))
    for t in (0.0, 0.5, sched.t_max):
        ids = corrupt(clean, t, cb, sched, np.random.default_rng(14)).ids
        rng = np.random.default_rng(14)
        probs = reference_corruption_matrix(cb, t, sched)[clean.ids]
        assert np.array_equal(ids, _kernels.weighted_pick(probs, rng.random(len(clean))))
