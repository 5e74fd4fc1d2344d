import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorsynth.motion import ControlFamily
from anchorsynth.refine import soft_init
from anchorsynth.scaffold import Anchor, AnchorSet, anchor_loss
from anchorsynth.synthworld import (
    BlockDecoder,
    LinearDecoder,
    OracleDenoiser,
    SynthTask,
    control_error,
    make_codebook,
    make_decoder,
    make_motion,
    make_paired_codec,
    tokenize,
)
from anchorsynth.tokenflow import Codebook, TokenSeq


def anchors_for(family, frames, targets):
    return AnchorSet(family, tuple(Anchor(f, t) for f, t in zip(frames, targets)))


# ------------------------------------------------------------------ make_motion


def test_line_motion_root_coordinates():
    task = SynthTask(kind="line", frames=10, joints=2, velocity=(1.0, 0.0, 0.0))
    motion = make_motion(task)
    np.testing.assert_allclose(motion.positions[:, 0, 0], np.arange(10.0), atol=1e-15)
    np.testing.assert_allclose(motion.positions[:, 0, 1:], 0.0, atol=1e-15)


def test_circle_motion_constant_radius():
    task = SynthTask(kind="circle", frames=24, joints=1, radius=1.5)
    motion = make_motion(task)
    planar = motion.positions[:, 0, [0, 2]]
    np.testing.assert_allclose(np.linalg.norm(planar, axis=1), 1.5, atol=1e-9)


def test_sinusoid_motion_vertical_only():
    task = SynthTask(kind="sinusoid", frames=16, joints=1, amplitude=0.4, period=8)
    motion = make_motion(task)
    assert not motion.positions[:, 0, [0, 2]].any()
    assert motion.positions[:, 0, 1].max() <= 0.4 + 1e-12


def test_motion_deterministic_given_seed():
    task = SynthTask(kind="random-walk", frames=20, joints=3, seed=5)
    a = make_motion(task)
    b = make_motion(task)
    np.testing.assert_array_equal(a.positions, b.positions)


def test_rig_offsets_are_constant_across_frames():
    task = SynthTask(kind="line", frames=12, joints=4)
    motion = make_motion(task)
    offsets = motion.positions - motion.positions[:, :1, :]
    np.testing.assert_allclose(offsets, np.broadcast_to(offsets[0], offsets.shape), atol=1e-12)


def test_noise_scale_perturbs_positions():
    base = make_motion(SynthTask(kind="line", frames=12, joints=2))
    noisy = make_motion(SynthTask(kind="line", frames=12, joints=2, noise=0.1))
    assert np.abs(noisy.positions - base.positions).max() > 0


# ---------------------------------------------------------------- make_codebook


def test_codebook_orthonormal_when_separation_is_one():
    cb = make_codebook(8, 8, 1.0, seed=0)
    gram = cb.embeddings @ cb.embeddings.T
    np.testing.assert_allclose(gram, np.eye(8), atol=1e-10)


def test_codebook_rows_unit_norm():
    cb = make_codebook(20, 12, 0.3, seed=1)
    np.testing.assert_allclose(np.linalg.norm(cb.embeddings, axis=1), 1.0, atol=1e-12)


def test_codebook_separation_verified_by_pairwise_scan():
    cb = make_codebook(32, 16, 0.3, seed=2)
    cos = cb.embeddings @ cb.embeddings.T
    np.fill_diagonal(cos, -1.0)
    assert cos.max() <= 0.7 + 1e-12


def test_codebook_infeasible_separation_raises():
    with pytest.raises(ValueError, match="separation"):
        make_codebook(64, 3, 0.95, seed=3, max_tries=20)


def test_codebook_deterministic_given_seed():
    a = make_codebook(16, 8, 0.3, seed=4)
    b = make_codebook(16, 8, 0.3, seed=4)
    np.testing.assert_array_equal(a.embeddings, b.embeddings)


# -------------------------------------------------------------------- tokenize


def test_tokenize_round_trip_through_paired_decoder():
    cb = make_codebook(32, 16, 0.3, seed=5)
    length, frames, joints, ratio = 16, 64, 6, 4
    w_enc, dec = make_paired_codec(cb, length, frames, joints, ratio, seed=6)
    rng = np.random.default_rng(7)
    ids = TokenSeq(rng.integers(0, 32, size=length))
    motion = dec.decode(soft_init(ids, cb).u)
    recovered = tokenize(motion, cb, ratio, w_enc)
    assert np.mean(recovered.ids == ids.ids) >= 0.9


def test_tokenize_constant_motion_constant_tokens():
    cb = make_codebook(8, 6, 0.3, seed=8)
    from anchorsynth.motion import Motion

    motion = Motion(np.ones((12, 2, 3)))
    w_enc = np.random.default_rng(9).normal(size=(6, 6))
    tokens = tokenize(motion, cb, 4, w_enc)
    assert len(set(tokens.ids.tolist())) == 1


def test_tokenize_tie_breaks_to_lower_id():
    # two identical codebook rows: distances tie, argmin picks id 0
    row = np.array([0.6, -0.8])
    cb = Codebook(np.stack([row, row]))
    from anchorsynth.motion import Motion

    motion = Motion(np.random.default_rng(10).normal(size=(8, 1, 3)))
    tokens = tokenize(motion, cb, 2, np.random.default_rng(11).normal(size=(3, 2)))
    assert np.all(tokens.ids == 0)


# --------------------------------------------------------------- control_error


def test_control_error_zero_for_perfect_motion():
    motion = make_motion(SynthTask(frames=12, joints=2))
    family = ControlFamily.root3d()
    from anchorsynth.motion import observe

    obs = observe(motion, family)
    anchors = anchors_for(family, [2, 9], obs[[2, 9]])
    assert control_error(motion, anchors) == 0.0


def test_control_error_single_offset_is_euclidean_norm():
    from anchorsynth.motion import Motion

    motion = Motion(np.zeros((10, 1, 3)))
    anchors = anchors_for(ControlFamily.root3d(), [4], [np.array([0.3, 0.0, 0.4])])
    assert control_error(motion, anchors) == pytest.approx(0.5, abs=1e-12)


def test_control_error_planar_ignores_vertical():
    from anchorsynth.motion import Motion

    motion = Motion(np.zeros((10, 1, 3)) + np.array([0.0, 5.0, 0.0]))
    anchors = anchors_for(ControlFamily.planar_root(), [3], [np.zeros(2)])
    assert control_error(motion, anchors) == 0.0


def test_control_error_empty_anchor_set_is_zero():
    motion = make_motion(SynthTask(frames=12, joints=1))
    assert control_error(motion, AnchorSet(ControlFamily.root3d())) == 0.0


def test_control_error_squares_to_anchor_loss_single_anchor():
    rng = np.random.default_rng(12)
    from anchorsynth.motion import Motion

    motion = Motion(rng.normal(size=(10, 2, 3)))
    anchors = anchors_for(ControlFamily.root3d(), [6], [rng.normal(size=3)])
    err = control_error(motion, anchors)
    assert err**2 == pytest.approx(anchor_loss(motion, anchors), rel=1e-12)


# -------------------------------------------------------------- linear decoder


def test_linear_decoder_vjp_is_exact_adjoint():
    rng = np.random.default_rng(13)
    dec = make_decoder(5, 4, 12, 3, seed=14)
    u = rng.normal(size=(5, 4))
    cot = rng.normal(size=(12, 3, 3))
    lhs = float(np.sum(dec.decode(u).positions * cot))
    rhs = float(np.sum(u * dec.vjp(u, cot)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_linear_decoder_vjp_matches_finite_differences():
    rng = np.random.default_rng(15)
    dec = make_decoder(3, 3, 6, 2, seed=16)
    u = rng.normal(size=(3, 3))
    cot = rng.normal(size=(6, 2, 3))
    analytic = dec.vjp(u, cot)
    h = 1e-6
    numeric = np.zeros_like(u)
    for idx in np.ndindex(u.shape):
        up, down = u.copy(), u.copy()
        up[idx] += h
        down[idx] -= h
        f_up = float(np.sum(dec.decode(up).positions * cot))
        f_down = float(np.sum(dec.decode(down).positions * cot))
        numeric[idx] = (f_up - f_down) / (2 * h)
    denom = max(np.linalg.norm(analytic), 1e-30)
    assert np.linalg.norm(analytic - numeric) / denom <= 1e-6


# ------------------------------------------------------------- oracle denoiser


def test_oracle_denoiser_exact_when_confusion_zero():
    clean = TokenSeq(np.arange(10))
    den = OracleDenoiser(clean, 16, 0.0, seed=17)
    for _ in range(3):
        np.testing.assert_array_equal(den.predict(clean, 0.5), clean.ids)


@pytest.mark.parametrize("eps", [0.4, 1.0 - 1.0 / 16])
def test_oracle_denoiser_accuracy_matches_bernoulli_mixture(eps):
    v, length, queries = 16, 100, 100
    clean = TokenSeq(np.random.default_rng(18).integers(0, v, size=length))
    den = OracleDenoiser(clean, v, eps, seed=19)
    hits = sum(
        np.sum(den.predict(clean, 0.5) == clean.ids) for _ in range(queries)
    )
    accuracy = hits / (length * queries)
    expect = (1 - eps) + eps / v
    sigma = np.sqrt(expect * (1 - expect) / (length * queries))
    assert abs(accuracy - expect) <= 4 * sigma


def test_oracle_denoiser_reproducible():
    clean = TokenSeq(np.arange(12))
    a = OracleDenoiser(clean, 12, 0.5, seed=20)
    b = OracleDenoiser(clean, 12, 0.5, seed=20)
    for _ in range(4):
        np.testing.assert_array_equal(a.predict(clean, 0.1), b.predict(clean, 0.1))


def test_synth_task_validation():
    with pytest.raises(ValueError):
        SynthTask(kind="spiral")
    with pytest.raises(ValueError):
        SynthTask(frames=4)


# --------------------------------------------------------------- block decoder


def dense_paired_decoder(dec: BlockDecoder, length: int) -> LinearDecoder:
    """The dense weight the block decoder stands for: g on every (n, f // ratio == n) block."""
    dim, fdim = dec.g.shape
    weight = np.zeros((length * dim, dec.frames * fdim))
    for n in range(length):
        for f in range(n * dec.ratio, min((n + 1) * dec.ratio, dec.frames)):
            weight[n * dim : (n + 1) * dim, f * fdim : (f + 1) * fdim] = dec.g
    return LinearDecoder(weight, length, dim, dec.frames, fdim // 3)


@pytest.mark.parametrize(
    "length, frames, ratio",
    [(16, 64, 4), (5, 17, 4), (7, 7, 1), (3, 8, 3), (4, 10, 3)],  # exact and padded grids
)
def test_block_decoder_matches_dense_oracle(length, frames, ratio):
    rng = np.random.default_rng(length * 100 + frames)
    cb = make_codebook(12, 5, 0.3, seed=frames)
    _, dec = make_paired_codec(cb, length, frames, 2, ratio, seed=ratio)
    dense = dense_paired_decoder(dec, length)
    for _ in range(5):
        u = rng.normal(size=(length, 5))
        cot = rng.normal(size=(frames, 2, 3))
        np.testing.assert_allclose(dec.decode(u).positions, dense.decode(u).positions, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dec.vjp(u, cot), dense.vjp(u, cot), rtol=0, atol=1e-12)


def test_paired_codec_returns_block_decoder_without_dense_weight():
    cb = make_codebook(32, 16, 0.3, seed=5)
    _, dec = make_paired_codec(cb, 256, 1024, 6, 4, seed=6)
    assert isinstance(dec, BlockDecoder)
    stored = sum(v.nbytes for v in vars(dec).values() if isinstance(v, np.ndarray))
    assert stored == 16 * 18 * 8


def test_block_decoder_rejects_uncovered_frames():
    dec = BlockDecoder(np.ones((2, 3)), ratio=4, frames=10)
    with pytest.raises(ValueError, match="cover"):
        dec.decode(np.ones((2, 2)))
    with pytest.raises(ValueError, match="cover"):
        dec.vjp(np.ones((2, 2)), np.ones((10, 1, 3)))
    with pytest.raises(ValueError, match="g must be"):
        BlockDecoder(np.ones((2, 4)), ratio=4, frames=10)


@settings(max_examples=60, deadline=None)
@given(
    length=st.integers(2, 6),
    ratio=st.integers(1, 4),
    dim=st.integers(1, 4),
    joints=st.integers(1, 3),
    short=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_decoder_adjoint_identity(length, ratio, dim, joints, short, seed):
    frames = max(length * ratio - short, 2)
    rng = np.random.default_rng(seed)
    dec = BlockDecoder(rng.normal(size=(dim, joints * 3)), ratio, frames)
    u = rng.normal(size=(length, dim))
    cot = rng.normal(size=(frames, joints, 3))
    lhs = float(np.sum(dec.decode(u).positions * cot))
    rhs = float(np.sum(u * dec.vjp(u, cot)))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
