from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorsynth.motion import ControlFamily, Motion, observe
from anchorsynth.refine import (
    GUARD_SLACK,
    ActivityVector,
    BasisMatrix,
    OptState,
    SoftTokens,
    SolverConfig,
    activities,
    build_basis,
    grad_objective,
    objective,
    opt_step,
    refine,
    route,
    soft_init,
)
from anchorsynth.scaffold import Anchor, AnchorSet, build_intervals
from anchorsynth.synthworld import LinearDecoder, make_codebook, make_decoder
from anchorsynth.tokenflow import Codebook, TokenSeq


def anchors_for(family, frames, targets):
    return AnchorSet(family, tuple(Anchor(f, t) for f, t in zip(frames, targets)))


def line_decoder(u0, frames, joints, velocity=(0.05, 0.0, 0.0)):
    """Decoder that maps exactly u0 to a straight-line motion."""
    t = np.arange(frames, dtype=np.float64)
    root = t[:, None] * np.asarray(velocity)
    flat = np.tile(root, (1, joints)).reshape(-1)
    vec = u0.reshape(-1)
    weight = np.outer(vec / (vec @ vec), flat)
    return LinearDecoder(weight, u0.shape[0], u0.shape[1], frames, joints)


def random_basis(rng, ratio=4, max_intervals=5):
    """Basis over random anchor frames with every interval >= 2 token centers."""
    n_iv = int(rng.integers(1, max_intervals + 1))
    length = 2 * ratio * n_iv // ratio + int(rng.integers(2, 6))
    frames_total = length * ratio
    cuts = np.sort(rng.choice(np.arange(2 * ratio, frames_total - 2 * ratio, 2 * ratio),
                              size=n_iv - 1, replace=False)) if n_iv > 1 else np.array([], dtype=int)
    family = ControlFamily.root3d()
    anchors = anchors_for(family, cuts, [np.zeros(3)] * len(cuts))
    intervals = build_intervals(anchors, frames_total)
    return build_basis(intervals, length, ratio), intervals


# ------------------------------------------------------------------ soft_init


def test_soft_init_constant_ids():
    cb = Codebook(np.random.default_rng(0).normal(size=(6, 4)))
    soft = soft_init(TokenSeq(np.zeros(5, dtype=np.int64)), cb)
    np.testing.assert_array_equal(soft.u, np.tile(cb.embeddings[0], (5, 1)))
    np.testing.assert_array_equal(soft.u0, soft.u)


def test_soft_init_identity_codebook_is_one_hot():
    cb = Codebook(np.eye(4))
    ids = np.array([2, 0, 3, 3])
    soft = soft_init(TokenSeq(ids), cb)
    expect = np.zeros((4, 4))
    expect[np.arange(4), ids] = 1.0
    np.testing.assert_array_equal(soft.u, expect)


def test_soft_init_matches_lookup_oracle():
    rng = np.random.default_rng(1)
    cb = Codebook(rng.normal(size=(12, 7)))
    ids = rng.integers(0, 12, size=20)
    soft = soft_init(TokenSeq(ids), cb)
    for n, i in enumerate(ids):
        assert np.array_equal(soft.u[n], cb.embeddings[i])


def test_soft_tokens_snapshot_is_read_only():
    soft = SoftTokens(np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        soft.u0[0, 0] = 1.0


# ------------------------------------------------------------------ objective


def test_objective_zero_on_satisfied_linear_slow_motion():
    rng = np.random.default_rng(2)
    u0 = rng.normal(size=(6, 4))
    dec = line_decoder(u0, frames=20, joints=2)
    motion = dec.decode(u0)
    family = ControlFamily.root3d()
    obs = observe(motion, family)
    anchors = anchors_for(family, [0, 7, 19], obs[[0, 7, 19]])
    cfg = SolverConfig(max_speed=1.0)
    value, parts = objective(SoftTokens(u0, u0), dec, anchors, cfg)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert parts == {"anc": pytest.approx(0.0, abs=1e-12), "sm": pytest.approx(0.0, abs=1e-24),
                     "tr": 0.0, "feas": 0.0}


def test_objective_smoothness_zero_for_linear_trajectory():
    rng = np.random.default_rng(3)
    u0 = rng.normal(size=(4, 3))
    dec = line_decoder(u0, frames=15, joints=1, velocity=(0.4, -0.2, 0.1))
    cfg = SolverConfig(smooth_weight=1.0, trust_weight=0.0)
    _, parts = objective(SoftTokens(u0, u0), dec, AnchorSet(ControlFamily.root3d()), cfg)
    assert parts["sm"] == pytest.approx(0.0, abs=1e-24)


def test_objective_smoothness_quadratic_trajectory():
    # root x = t^2 over T=5: second difference is 2 at each of the 3 interior
    # frames, so the mean of squared norms is 3 * 4 / 3 = 4
    t = np.arange(5, dtype=np.float64)
    root = np.stack([t**2, np.zeros(5), np.zeros(5)], axis=1)
    motion_u = np.ones((2, 2))
    dec = LinearDecoder(
        np.outer(motion_u.reshape(-1) / 4.0, root.reshape(-1)), 2, 2, 5, 1
    )
    cfg = SolverConfig(smooth_weight=1.0, trust_weight=0.0)
    _, parts = objective(SoftTokens(motion_u, motion_u), dec, AnchorSet(ControlFamily.root3d()), cfg)
    assert parts["sm"] == pytest.approx(4.0, rel=1e-12)


def test_objective_parts_sum_and_trust_term():
    rng = np.random.default_rng(4)
    u0 = rng.normal(size=(5, 3))
    u = u0 + 0.5
    dec = make_decoder(5, 3, 12, 2, seed=5)
    family = ControlFamily.root3d()
    anchors = anchors_for(family, [2, 8], [rng.normal(size=3), rng.normal(size=3)])
    cfg = SolverConfig(feasibility_weight=0.2, max_speed=0.1)
    value, parts = objective(SoftTokens(u, u0), dec, anchors, cfg)
    assert value == parts["anc"] + parts["sm"] + parts["tr"] + parts["feas"]
    assert parts["tr"] == pytest.approx(cfg.trust_weight * 0.25 * u0.size, rel=1e-12)


def test_objective_short_motion_errors():
    u0 = np.ones((2, 2))
    dec = make_decoder(2, 2, 2, 1, seed=6)
    cfg = SolverConfig(smooth_weight=0.1)
    with pytest.raises(ValueError, match="3 frames"):
        objective(SoftTokens(u0, u0), dec, AnchorSet(ControlFamily.root3d()), cfg)


# ------------------------------------------------------------- grad_objective


def central_difference(soft, dec, anchors, cfg, h=1e-4):
    grad = np.zeros_like(soft.u)
    for idx in np.ndindex(soft.u.shape):
        up = soft.u.copy()
        down = soft.u.copy()
        up[idx] += h
        down[idx] -= h
        f_up, _ = objective(SoftTokens(up, soft.u0), dec, anchors, cfg)
        f_down, _ = objective(SoftTokens(down, soft.u0), dec, anchors, cfg)
        grad[idx] = (f_up - f_down) / (2 * h)
    return grad


def relative_error(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-30)
    return np.linalg.norm(a - b) / denom


def test_grad_zero_at_snapshot_with_trust_only():
    rng = np.random.default_rng(7)
    u0 = rng.normal(size=(4, 3))
    dec = make_decoder(4, 3, 10, 2, seed=8)
    cfg = SolverConfig(smooth_weight=0.0, trust_weight=0.3)
    grad = grad_objective(SoftTokens(u0, u0), dec, AnchorSet(ControlFamily.root3d()), cfg)
    assert not grad.any()


def test_grad_trust_term_is_linear():
    rng = np.random.default_rng(9)
    u0 = rng.normal(size=(4, 3))
    delta = rng.normal(size=(4, 3))
    dec = make_decoder(4, 3, 10, 2, seed=10)
    cfg = SolverConfig(smooth_weight=0.0, trust_weight=0.3)
    grad = grad_objective(SoftTokens(u0 + delta, u0), dec, AnchorSet(ControlFamily.root3d()), cfg)
    np.testing.assert_allclose(grad, 2 * 0.3 * delta, atol=1e-12)


@pytest.mark.parametrize(
    "cfg",
    [
        SolverConfig(smooth_weight=0.0, trust_weight=0.0),  # anchors only
        SolverConfig(smooth_weight=0.7, trust_weight=0.0),
        SolverConfig(smooth_weight=0.0, trust_weight=0.4),
        SolverConfig(smooth_weight=0.0, trust_weight=0.0, feasibility_weight=0.5, max_speed=0.35),
        SolverConfig(smooth_weight=0.3, trust_weight=0.05, feasibility_weight=0.2, max_speed=0.35),
    ],
)
def test_grad_matches_central_differences(cfg):
    rng = np.random.default_rng(11)
    for trial in range(4):
        u0 = rng.normal(size=(3, 4))
        u = u0 + 0.3 * rng.normal(size=(3, 4))
        dec = make_decoder(3, 4, 8, 2, seed=100 + trial)
        family = ControlFamily.root3d()
        frames = [1, 4, 7]
        anchors = anchors_for(family, frames, [rng.normal(size=3) for _ in frames])
        soft = SoftTokens(u, u0)
        analytic = grad_objective(soft, dec, anchors, cfg)
        numeric = central_difference(soft, dec, anchors, cfg)
        assert relative_error(analytic, numeric) <= 1e-5


def test_grad_all_families():
    rng = np.random.default_rng(12)
    cfg = SolverConfig(smooth_weight=0.2, trust_weight=0.1)
    for family in (ControlFamily.root3d(), ControlFamily.planar_root(), ControlFamily.body_point(1)):
        u0 = rng.normal(size=(3, 3))
        u = u0 + 0.2 * rng.normal(size=(3, 3))
        dec = make_decoder(3, 3, 9, 2, seed=13)
        frames = [0, 5]
        anchors = anchors_for(family, frames, [rng.normal(size=family.control_dim) for _ in frames])
        soft = SoftTokens(u, u0)
        assert relative_error(grad_objective(soft, dec, anchors, cfg),
                              central_difference(soft, dec, anchors, cfg)) <= 1e-5


# -------------------------------------------------------------------- opt_step


def test_opt_step_zero_gradient_plain():
    soft = SoftTokens(np.ones((3, 2)), np.ones((3, 2)))
    delta = opt_step(soft, np.zeros((3, 2)), SolverConfig(), OptState())
    assert not delta.any()


def test_opt_step_plain_scaling():
    rng = np.random.default_rng(14)
    g = rng.normal(size=(4, 3))
    soft = SoftTokens(np.zeros((4, 3)), np.zeros((4, 3)))
    delta = opt_step(soft, g, SolverConfig(step_size=0.1), OptState())
    np.testing.assert_allclose(delta, -0.1 * g, atol=1e-15)


def test_opt_step_heavy_ball_unrolled_two_steps():
    rng = np.random.default_rng(15)
    g = rng.normal(size=(4, 3))
    soft = SoftTokens(np.zeros((4, 3)), np.zeros((4, 3)))
    cfg = SolverConfig(step_size=0.1, optimizer="heavy_ball", momentum=0.9)
    state = OptState()
    d1 = opt_step(soft, g, cfg, state)
    d2 = opt_step(soft, g, cfg, state)
    np.testing.assert_allclose(d1, -0.1 * g, atol=1e-15)
    np.testing.assert_allclose(d2, -0.1 * g * 1.9, atol=1e-15)


# ------------------------------------------------------------------ build_basis


def test_basis_single_interval():
    intervals = build_intervals(AnchorSet(ControlFamily.root3d()), 32)
    basis = build_basis(intervals, 8, 4)
    assert basis.matrix.shape == (8, 2)
    np.testing.assert_array_equal(basis.matrix[:, 0], np.ones(8))
    centers = np.arange(8) * 4 + 1.5
    np.testing.assert_allclose(basis.matrix[:, 1], 2 * centers / 31 - 1, atol=1e-12)
    assert np.all(np.diff(basis.matrix[:, 1]) > 0)


def test_basis_midpoint_token_has_zero_slope_entry():
    # token center 17.5 at the midpoint of [5, 30]
    family = ControlFamily.root3d()
    anchors = anchors_for(family, [5, 30], [np.zeros(3), np.zeros(3)])
    intervals = build_intervals(anchors, 36)
    basis = build_basis(intervals, 9, 4)
    n = 4  # center = 4*4 + 1.5 = 17.5
    i = basis.token_interval[n]
    assert intervals.intervals[i] == (5, 30)
    assert basis.matrix[n, 2 * i + 1] == pytest.approx(0.0, abs=1e-12)


def test_basis_two_equal_intervals_block_diagonal():
    family = ControlFamily.root3d()
    anchors = anchors_for(family, [16], [np.zeros(3)])
    intervals = build_intervals(anchors, 33)
    basis = build_basis(intervals, 9, 4)
    # membership oracle: token center < 16 -> block 0, else block 1
    centers = np.arange(9) * 4 + 1.5
    for n in range(9):
        expect_block = 0 if centers[n] < 16 else 1
        assert basis.token_interval[n] == expect_block
        other = 1 - expect_block
        assert not basis.matrix[n, 2 * other : 2 * other + 2].any()
        assert basis.matrix[n, 2 * expect_block] == 1.0
    # both 16-frame intervals see the same in-interval token offsets
    np.testing.assert_allclose(basis.matrix[:4, 1], basis.matrix[4:8, 3], atol=1e-12)


def test_basis_rejects_uncovered_partition():
    intervals = build_intervals(AnchorSet(ControlFamily.root3d()), 64)
    with pytest.raises(ValueError, match="cover"):
        build_basis(intervals, 4, 4)


# ------------------------------------------------------------------ activities


def test_activities_zero_when_anchors_satisfied():
    rng = np.random.default_rng(16)
    motion = Motion(rng.normal(size=(20, 2, 3)))
    family = ControlFamily.root3d()
    obs = observe(motion, family)
    anchors = anchors_for(family, [4, 12], obs[[4, 12]])
    intervals = build_intervals(anchors, 20)
    act = activities(motion, anchors, intervals, 0.05)
    np.testing.assert_array_equal(act.values, np.zeros(3))


def test_activities_half_tolerance_endpoint():
    motion = Motion(np.zeros((20, 1, 3)))
    family = ControlFamily.root3d()
    rho = 0.2
    anchors = anchors_for(family, [6, 14], [np.array([rho / 2, 0, 0]), np.zeros(3)])
    intervals = build_intervals(anchors, 20)
    act = activities(motion, anchors, intervals, rho)
    # intervals: [0,6], [6,14], [14,19]; the frame-6 anchor misses by rho/2
    np.testing.assert_allclose(act.values, [0.5, 0.5, 0.0], atol=1e-12)


def test_activities_clip_at_one():
    motion = Motion(np.zeros((10, 1, 3)))
    family = ControlFamily.root3d()
    rho = 0.1
    anchors = anchors_for(family, [5], [np.array([3 * rho, 0, 0])])
    intervals = build_intervals(anchors, 10)
    act = activities(motion, anchors, intervals, rho)
    np.testing.assert_array_equal(act.values, [1.0, 1.0])


def test_activities_boundary_endpoints_contribute_zero():
    motion = Motion(np.zeros((10, 1, 3)))
    family = ControlFamily.root3d()
    anchors = anchors_for(family, [5], [np.array([10.0, 0, 0])])
    intervals = build_intervals(anchors, 10)
    act = activities(motion, anchors, intervals, 0.5)
    # both intervals touch the violated frame-5 anchor
    np.testing.assert_array_equal(act.values, [1.0, 1.0])


# ----------------------------------------------------------------------- route


def test_route_unpenalized_interpolates_in_span():
    rng = np.random.default_rng(17)
    basis, _ = random_basis(rng)
    n_iv = basis.num_intervals
    alpha_true = rng.normal(size=(2 * n_iv, 5))
    delta = basis.matrix @ alpha_true
    act = ActivityVector(np.ones(n_iv))  # W = 0
    routed, _ = route(delta, basis, act, 0.1)
    np.testing.assert_allclose(routed, delta, atol=1e-10)


def test_route_large_ridge_shrinks_to_zero():
    rng = np.random.default_rng(18)
    basis, _ = random_basis(rng)
    delta = rng.normal(size=(basis.matrix.shape[0], 4))
    gram_norm = np.linalg.norm(basis.matrix.T @ basis.matrix, 2)
    act = ActivityVector(np.zeros(basis.num_intervals))
    routed, _ = route(delta, basis, act, 1e6 * gram_norm)
    assert np.linalg.norm(routed) <= 1e-4 * np.linalg.norm(delta)


def test_route_matches_dense_normal_equation_oracle():
    rng = np.random.default_rng(19)
    extra = [degenerate_basis([62, 63]), degenerate_basis([8, 12])]  # empty / one-token block
    for k in range(50 + len(extra)):
        basis = extra[k - 50] if k >= 50 else random_basis(rng)[0]
        n_iv = basis.num_intervals
        delta = rng.normal(size=(basis.matrix.shape[0], int(rng.integers(1, 6))))
        act = ActivityVector(rng.uniform(0, 1, size=n_iv))
        lam = float(10 ** rng.uniform(-3, 1))
        routed, alpha = route(delta, basis, act, lam)
        b = basis.matrix
        weights = np.repeat(1 - act.values, 2)
        oracle = np.linalg.solve(b.T @ b + lam * np.diag(weights), b.T @ delta)
        assert np.linalg.norm(alpha - oracle) <= 1e-8 * max(np.linalg.norm(oracle), 1e-30)
        np.testing.assert_allclose(routed, b @ oracle, atol=1e-8)


def test_route_projection_idempotent_with_full_rank_basis():
    rng = np.random.default_rng(20)
    for _ in range(20):
        basis, _ = random_basis(rng)
        act = ActivityVector(np.ones(basis.num_intervals))
        delta = rng.normal(size=(basis.matrix.shape[0], 3))
        once, _ = route(delta, basis, act, 0.05)
        twice, _ = route(once, basis, act, 0.05)
        assert np.linalg.norm(twice - once) <= 1e-8 * max(np.linalg.norm(delta), 1e-30)


def test_route_ridge_objective_optimality():
    rng = np.random.default_rng(21)
    basis, _ = random_basis(rng)
    n_iv = basis.num_intervals
    delta = rng.normal(size=(basis.matrix.shape[0], 3))
    act = ActivityVector(rng.uniform(0, 0.9, size=n_iv))
    lam = 0.3
    _, alpha = route(delta, basis, act, lam)
    weights = np.repeat(1 - act.values, 2)

    def ridge_cost(a):
        resid = delta - basis.matrix @ a
        return float(np.sum(resid**2) + lam * np.sum(weights[:, None] * a**2))

    best = ridge_cost(alpha)
    for _ in range(100):
        assert best <= ridge_cost(alpha + 1e-3 * rng.normal(size=alpha.shape)) + 1e-12


def test_route_block_norms_shrink_monotonically_in_ridge():
    rng = np.random.default_rng(22)
    for _ in range(10):
        basis, _ = random_basis(rng)
        n_iv = basis.num_intervals
        delta = rng.normal(size=(basis.matrix.shape[0], 3))
        act = ActivityVector(rng.uniform(0, 0.95, size=n_iv))
        norms = []
        for lam in (0.01, 0.1, 1.0, 10.0, 100.0):
            _, alpha = route(delta, basis, act, lam)
            norms.append([np.linalg.norm(alpha[2 * i : 2 * i + 2]) for i in range(n_iv)])
        norms = np.array(norms)
        assert np.all(np.diff(norms, axis=0) <= 1e-12)


def test_route_span_confinement_zero_rows():
    # a token with no interval support (all-zero basis row) gets exactly zero
    rng = np.random.default_rng(23)
    matrix = np.zeros((6, 4))
    matrix[:3, 0] = 1.0
    matrix[:3, 1] = [-1.0, 0.0, 1.0]
    matrix[4:, 2] = 1.0
    matrix[4:, 3] = [-1.0, 1.0]
    basis = BasisMatrix(matrix, np.array([0, 0, 0, -1, 1, 1]))
    delta = rng.normal(size=(6, 3))
    routed, alpha = route(delta, basis, ActivityVector(np.array([0.5, 0.5])), 0.2)
    assert np.array_equal(routed[3], np.zeros(3))
    # block independence: each row is its own block dotted with the coefficients
    for n in (0, 1, 2):
        np.testing.assert_allclose(routed[n], matrix[n, :2] @ alpha[:2], atol=1e-14)
    for n in (4, 5):
        np.testing.assert_allclose(routed[n], matrix[n, 2:] @ alpha[2:], atol=1e-14)


def test_route_activity_gates_correction_capacity():
    # two 16-frame intervals, raw update with equal energy in both blocks:
    # the violated (active) block keeps larger coefficients at any ridge
    family = ControlFamily.root3d()
    anchors = anchors_for(family, [16], [np.zeros(3)])
    intervals = build_intervals(anchors, 33)
    basis = build_basis(intervals, 9, 4)
    rng = np.random.default_rng(24)
    alpha0 = rng.normal(size=(2, 4))
    block0 = basis.matrix[:, :2] @ alpha0
    block1 = basis.matrix[:, 2:] @ alpha0
    scale = np.linalg.norm(block0) / np.linalg.norm(block1)
    delta = block0 + scale * block1
    assert np.linalg.norm(delta[:4]) == pytest.approx(
        np.linalg.norm(delta[4:]), rel=1e-12
    )
    act = ActivityVector(np.array([1.0, 0.0]))
    for lam in (0.01, 0.1, 1.0):
        _, alpha = route(delta, basis, act, lam)
        active = np.linalg.norm(alpha[:2])
        frozen = np.linalg.norm(alpha[2:])
        assert active >= frozen


def test_route_ridge_zero_requires_full_rank():
    matrix = np.zeros((4, 2))
    matrix[:, 0] = 1.0  # slope column absent -> rank deficient
    basis = BasisMatrix(matrix, np.zeros(4, dtype=np.int64))
    with pytest.raises(np.linalg.LinAlgError, match="full-column-rank"):
        route(np.ones((4, 2)), basis, ActivityVector(np.array([0.0])), 0.0)


def test_route_ridge_zero_full_rank_projects():
    rng = np.random.default_rng(25)
    basis, _ = random_basis(rng)
    delta = rng.normal(size=(basis.matrix.shape[0], 2))
    routed, _ = route(delta, basis, ActivityVector(np.zeros(basis.num_intervals)), 0.0)
    b = basis.matrix
    expect = b @ np.linalg.lstsq(b, delta, rcond=None)[0]
    np.testing.assert_allclose(routed, expect, atol=1e-9)


def dense_min_norm_oracle(basis, delta, act, lam):
    """Minimum-norm solution of the full normal equations, and its routed update."""
    b = basis.matrix
    system = b.T @ b + lam * np.diag(np.repeat(1 - act.values, 2))
    alpha = np.linalg.pinv(system, rcond=1e-12) @ (b.T @ delta)
    return b @ alpha, alpha


def degenerate_basis(frames):
    """Standard 16 x 4 token grid with anchors at ``frames`` (64 frames)."""
    anchors = anchors_for(ControlFamily.root3d(), frames, [np.zeros(3)] * len(frames))
    return build_basis(build_intervals(anchors, 64), 16, 4)


def test_route_empty_interval_gets_zero_coefficients():
    # anchors at 62 and 63: no token center (n * 4 + 1.5) lies in [62, 63]
    basis = degenerate_basis([62, 63])
    assert basis.num_intervals == 2 and not np.any(basis.token_interval == 1)
    rng = np.random.default_rng(26)
    for activity in ([0.3, 0.0], [1.0, 1.0], [0.5, 1.0]):
        act = ActivityVector(np.array(activity))
        delta = rng.normal(size=(16, 5))
        routed, alpha = route(delta, basis, act, 0.1)
        assert np.array_equal(alpha[2:], np.zeros((2, 5)))
        expect_routed, expect_alpha = dense_min_norm_oracle(basis, delta, act, 0.1)
        np.testing.assert_allclose(alpha, expect_alpha, rtol=0, atol=1e-12)
        np.testing.assert_allclose(routed, expect_routed, rtol=0, atol=1e-12)
    with pytest.raises(np.linalg.LinAlgError, match="full-column-rank"):
        route(delta, basis, ActivityVector(np.array([0.3, 0.0])), 0.0)


def test_route_single_token_fully_active_block_is_min_norm():
    # anchors at 8 and 12: interval [8, 12) holds the single token center 9.5
    basis = degenerate_basis([8, 12])
    assert np.count_nonzero(basis.token_interval == 1) == 1
    rng = np.random.default_rng(27)
    for lam in (0.01, 0.1, 3.0):
        act = ActivityVector(np.array([0.4, 1.0, 0.7]))
        delta = rng.normal(size=(16, 4))
        routed, alpha = route(delta, basis, act, lam)
        expect_routed, expect_alpha = dense_min_norm_oracle(basis, delta, act, lam)
        np.testing.assert_allclose(alpha, expect_alpha, rtol=0, atol=1e-12)
        np.testing.assert_allclose(routed, expect_routed, rtol=0, atol=1e-12)
        # the lone token's update passes through unchanged
        np.testing.assert_allclose(routed[2], delta[2], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------- refine


def refinement_task(seed, frames=48, length=12, ratio=4, n_anchors=4):
    rng = np.random.default_rng(seed)
    cb = make_codebook(24, 8, 0.3, seed=seed + 1)
    ids = TokenSeq(rng.integers(0, 24, size=length))
    soft = soft_init(ids, cb)
    dec = make_decoder(length, cb.dim, frames, 2, seed=seed + 2)
    family = ControlFamily.root3d()
    anchor_frames = np.sort(rng.choice(frames, size=n_anchors, replace=False))
    targets = [rng.normal(scale=0.5, size=3) for _ in anchor_frames]
    anchors = anchors_for(family, anchor_frames, targets)
    intervals = build_intervals(anchors, frames)
    return soft, dec, anchors, intervals, ratio


def test_refine_zero_steps_is_identity():
    soft, dec, anchors, intervals, ratio = refinement_task(26)
    out, trace = refine(soft, dec, anchors, intervals, SolverConfig(steps=0), ratio)
    np.testing.assert_array_equal(out.u, soft.u)
    assert trace == []


def test_refine_converges_on_linear_decoder_task():
    soft, dec, anchors, intervals, ratio = refinement_task(27)
    from anchorsynth.scaffold import anchor_loss

    initial = anchor_loss(dec.decode(soft.u), anchors)
    cfg = SolverConfig(steps=200, step_size=0.01)
    out, trace = refine(soft, dec, anchors, intervals, cfg, ratio)
    final = anchor_loss(dec.decode(out.u), anchors)
    assert final <= 0.1 * initial
    assert len(trace) == 200
    assert trace[0].anchor_loss == pytest.approx(initial, rel=1e-12)


def test_refine_zero_activity_stays_at_snapshot():
    # anchors already satisfied at u0 and no smoothness pressure: the gradient
    # vanishes identically, so 200 steps never move the embeddings
    soft, dec, _, _, ratio = refinement_task(28)
    family = ControlFamily.root3d()
    obs = observe(dec.decode(soft.u), family)
    anchors = anchors_for(family, [5, 20, 40], obs[[5, 20, 40]])
    intervals = build_intervals(anchors, 48)
    cfg = SolverConfig(steps=200, smooth_weight=0.0, trust_weight=0.01, step_size=0.01)
    out, trace = refine(soft, dec, anchors, intervals, cfg, ratio)
    assert np.linalg.norm(out.u - soft.u0) <= 1e-3 * np.linalg.norm(soft.u0)
    assert trace[0].mean_activity == 0.0


def test_refine_never_mutates_snapshot():
    soft, dec, anchors, intervals, ratio = refinement_task(29)
    before = soft.u0.copy()
    out, _ = refine(soft, dec, anchors, intervals, SolverConfig(steps=50, step_size=0.01), ratio)
    np.testing.assert_array_equal(soft.u0, before)
    np.testing.assert_array_equal(out.u0, before)


def test_refine_heavy_ball_also_converges():
    soft, dec, anchors, intervals, ratio = refinement_task(30)
    from anchorsynth.scaffold import anchor_loss

    initial = anchor_loss(dec.decode(soft.u), anchors)
    cfg = SolverConfig(steps=200, step_size=0.003, optimizer="heavy_ball", momentum=0.9)
    out, _ = refine(soft, dec, anchors, intervals, cfg, ratio)
    assert anchor_loss(dec.decode(out.u), anchors) <= 0.1 * initial


def test_refine_trace_fields_monotone_objective_tail():
    soft, dec, anchors, intervals, ratio = refinement_task(31)
    cfg = SolverConfig(steps=120, step_size=0.01)
    _, trace = refine(soft, dec, anchors, intervals, cfg, ratio)
    objectives = [row.objective for row in trace]
    assert objectives[-1] < objectives[0]
    assert all(row.update_norm >= 0 for row in trace)
    assert all(0.0 <= row.mean_activity <= 1.0 for row in trace)


# ----------------------------------------------------------------- step guard


def standard_refinement(solver_overrides, seed=0, kind="line", family=None):
    """Soft tokens, decoder, anchors and intervals of the standard config."""
    from anchorsynth.cli import build_world, load_config
    from anchorsynth.tokenflow import sample

    config = load_config(Path(__file__).resolve().parents[1] / "configs" / "standard.json")
    config = replace(
        config,
        seed=seed,
        task=replace(config.task, kind=kind),
        family=family or config.family,
        solver=replace(config.solver, **solver_overrides),
    )
    world = build_world(config)
    tokens = sample(
        world.denoiser,
        config.tokens.length,
        world.codebook,
        config.schedule,
        context=world.memory,
        rng=world.sampler_rng,
    )
    soft = soft_init(tokens, world.codebook)
    intervals = build_intervals(world.anchors, world.gt.frames)
    return soft, world.decoder, world.anchors, intervals, config


def unguarded_refine(soft, dec, anchors, intervals, cfg, ratio):
    """The routed loop with every raw step applied as is."""
    basis = build_basis(intervals, soft.u.shape[0], ratio)
    state = OptState()
    for _ in range(cfg.steps):
        act = activities(dec.decode(soft.u), anchors, intervals, anchors.family.tolerance)
        raw = opt_step(soft, grad_objective(soft, dec, anchors, cfg), cfg, state)
        routed, _ = route(raw, basis, act, cfg.ridge)
        soft = soft.moved_to(soft.u + routed)
    return soft


def test_guard_leaves_stable_run_bitwise_unchanged():
    soft, dec, anchors, intervals, config = standard_refinement({"steps": 200})
    ratio = config.tokens.frames_per_token
    guarded, _ = refine(soft, dec, anchors, intervals, config.solver, ratio)
    plain = unguarded_refine(soft, dec, anchors, intervals, config.solver, ratio)
    assert np.array_equal(guarded.u, plain.u)


def test_guard_keeps_unstable_step_size_converging():
    # step 0.05 is above 2 / L on this task: unguarded, the loop overflows
    from anchorsynth.synthworld import control_error

    soft, dec, anchors, intervals, config = standard_refinement({"step_size": 0.05, "steps": 500})
    ratio = config.tokens.frames_per_token
    with np.errstate(over="ignore", invalid="ignore"):
        diverged = unguarded_refine(soft, dec, anchors, intervals, config.solver, ratio)
        assert not np.isfinite(objective(diverged, dec, anchors, config.solver)[0])
    out, trace = refine(soft, dec, anchors, intervals, config.solver, ratio)
    values = [row.objective for row in trace]
    assert all(b <= a for a, b in zip(values, values[1:]))
    before = control_error(dec.decode(soft.u), anchors)
    after = control_error(dec.decode(out.u), anchors)
    assert after < 0.01 * before


@settings(max_examples=15, deadline=None)
@given(
    step_size=st.floats(0.0, 0.2, exclude_min=True),
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["line", "circle", "sinusoid", "random-walk"]),
    family=st.sampled_from(
        [ControlFamily.root3d(), ControlFamily.planar_root(), ControlFamily.body_point(3)]
    ),
)
def test_guarded_gd_never_ends_above_its_start(step_size, seed, kind, family):
    overrides = {"optimizer": "gd", "step_size": step_size, "steps": 100}
    soft, dec, anchors, intervals, config = standard_refinement(overrides, seed, kind, family)
    out, trace = refine(soft, dec, anchors, intervals, config.solver, config.tokens.frames_per_token)
    start = objective(soft, dec, anchors, config.solver)[0]
    assert objective(out, dec, anchors, config.solver)[0] <= GUARD_SLACK * start
    values = [row.objective for row in trace]
    assert all(b <= a for a, b in zip(values, values[1:]))
