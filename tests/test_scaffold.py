import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from anchorsynth.motion import ControlFamily, Motion, observation_adjoint, observe
from anchorsynth.scaffold import (
    Anchor,
    AnchorSet,
    anchor_loss,
    build_features,
    build_intervals,
    interp_prior,
    residuals,
    support_assignment,
    supervised_anchor_loss,
)


def motion_from_root(root, joints=3):
    root = np.asarray(root, dtype=np.float64)
    offsets = np.linspace(0.0, 1.0, joints * 3).reshape(joints, 3)
    return Motion(root[:, None, :] + offsets[None, :, :])


def random_motion(rng, frames=20, joints=4):
    return Motion(rng.normal(size=(frames, joints, 3)))


def anchors_for(family, frames, targets):
    return AnchorSet(family, tuple(Anchor(f, t) for f, t in zip(frames, targets)))


# ---------------------------------------------------------------- observe


def test_observe_zero_motion_root3d():
    motion = Motion(np.zeros((5, 2, 3)))
    assert np.array_equal(observe(motion, ControlFamily.root3d()), np.zeros((5, 3)))


def test_observe_planar_selects_x_and_z():
    root = np.tile([1.0, 2.0, 3.0], (6, 1))
    motion = Motion(root[:, None, :])
    obs = observe(motion, ControlFamily.planar_root())
    assert np.array_equal(obs, np.tile([1.0, 3.0], (6, 1)))


def test_observe_body_point_matches_direct_indexing():
    rng = np.random.default_rng(0)
    motion = random_motion(rng, frames=12, joints=5)
    for j in range(5):
        obs = observe(motion, ControlFamily.body_point(j))
        assert np.array_equal(obs, motion.positions[:, j, :])


def test_observe_rejects_out_of_range_joint():
    motion = Motion(np.zeros((4, 2, 3)))
    with pytest.raises(ValueError, match="out of range"):
        observe(motion, ControlFamily.body_point(2))


def test_observation_adjoint_is_observe_transpose():
    # <observe(x), g> == <x, adjoint(g)> for every family
    rng = np.random.default_rng(1)
    motion = random_motion(rng, frames=9, joints=4)
    for family in (ControlFamily.root3d(), ControlFamily.planar_root(), ControlFamily.body_point(2)):
        g = rng.normal(size=(9, family.control_dim))
        lhs = float(np.sum(observe(motion, family) * g))
        rhs = float(np.sum(motion.positions * observation_adjoint(g, family, 4)))
        assert lhs == pytest.approx(rhs, rel=1e-12)


# ------------------------------------------------------------------ anchors


def test_anchor_target_is_a_read_only_copy():
    target = np.array([1.0, 2.0, 3.0])
    anchor = Anchor(3, target)
    anchors = AnchorSet(ControlFamily.root3d(), (anchor,))
    frames, targets = anchors.frames, anchors.targets
    target[0] = 99.0
    np.testing.assert_array_equal(anchor.target, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(anchors.targets, [[1.0, 2.0, 3.0]])
    # built once per set
    assert anchors.frames is frames and anchors.targets is targets
    for array in (anchor.target, frames, targets):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_empty_anchor_set_arrays_are_read_only():
    anchors = AnchorSet(ControlFamily.planar_root())
    assert anchors.frames.shape == (0,) and anchors.targets.shape == (0, 2)
    assert not anchors.frames.flags.writeable and not anchors.targets.flags.writeable


# ------------------------------------------------------------ anchor_loss


def test_anchor_loss_zero_when_satisfied():
    rng = np.random.default_rng(2)
    motion = random_motion(rng)
    family = ControlFamily.root3d()
    obs = observe(motion, family)
    anchors = anchors_for(family, [3, 8, 15], obs[[3, 8, 15]])
    assert anchor_loss(motion, anchors) == 0.0


def test_anchor_loss_single_offset_anchor():
    motion = Motion(np.zeros((10, 1, 3)))
    anchors = anchors_for(ControlFamily.root3d(), [4], [np.array([0.3, 0.0, 0.4])])
    # 0.3^2 + 0.4^2
    assert anchor_loss(motion, anchors) == pytest.approx(0.25, abs=1e-15)


def test_anchor_loss_empty_set():
    motion = Motion(np.zeros((5, 1, 3)))
    assert anchor_loss(motion, AnchorSet(ControlFamily.root3d())) == 0.0


# ------------------------------------------------------------ interp_prior


def test_prior_two_anchor_linear_ramp():
    family = ControlFamily.root3d()
    anchors = anchors_for(family, [0, 10], [np.zeros(3), np.ones(3)])
    p, mask = interp_prior(anchors, 12)
    expect = np.concatenate([np.linspace(0, 1, 11), [0.0]])
    for c in range(3):
        np.testing.assert_allclose(p[:, c], expect, atol=1e-12)
    assert np.array_equal(mask, np.concatenate([np.ones(11), [0.0]]))


def test_prior_single_anchor_point_support():
    family = ControlFamily.planar_root()
    anchors = anchors_for(family, [5], [np.array([2.0, 2.0])])
    p, mask = interp_prior(anchors, 10)
    assert p[5, 0] == 2.0 and p[5, 1] == 2.0
    assert mask[5] == 1.0
    assert np.count_nonzero(mask) == 1
    assert np.count_nonzero(p) == 2


def test_prior_no_anchors_all_zero():
    p, mask = interp_prior(AnchorSet(ControlFamily.root3d()), 7)
    assert not p.any() and not mask.any()


def test_prior_matches_independent_natural_spline_oracle():
    # anchors sampled from a cubic; expected values from scipy's natural spline
    family = ControlFamily.root3d()
    frames = np.array([2, 9, 17, 30])
    poly = lambda t: 0.02 * t**3 - 0.4 * t**2 + 1.5 * t - 2.0
    targets = [np.full(3, poly(float(f))) for f in frames]
    anchors = anchors_for(family, frames, targets)
    p, mask = interp_prior(anchors, 32)

    oracle = CubicSpline(frames.astype(float), [poly(float(f)) for f in frames], bc_type="natural")
    span = np.arange(2, 31)
    for c in range(3):
        np.testing.assert_allclose(p[span, c], oracle(span.astype(float)), atol=1e-6)
    assert np.array_equal(np.nonzero(mask)[0], span)


def test_prior_reproduces_linear_data_exactly():
    # a straight line has zero curvature everywhere, so the natural spline recovers it
    family = ControlFamily.root3d()
    frames = np.array([1, 6, 11, 19, 25])
    targets = [np.array([0.5 * f - 1.0, 2.0, -0.25 * f]) for f in frames]
    anchors = anchors_for(family, frames, targets)
    p, _ = interp_prior(anchors, 28)
    t = np.arange(1, 26, dtype=np.float64)
    np.testing.assert_allclose(p[1:26, 0], 0.5 * t - 1.0, atol=1e-9)
    np.testing.assert_allclose(p[1:26, 2], -0.25 * t, atol=1e-9)


@pytest.mark.parametrize(
    "family",
    [ControlFamily.root3d(), ControlFamily.planar_root(), ControlFamily.body_point(1)],
)
def test_prior_hits_anchor_values_all_families(family):
    rng = np.random.default_rng(3)
    frames = np.sort(rng.choice(40, size=6, replace=False))
    targets = [rng.normal(size=family.control_dim) for _ in frames]
    anchors = anchors_for(family, frames, targets)
    p, mask = interp_prior(anchors, 40)
    for f, y in zip(frames, targets):
        assert np.max(np.abs(p[f] - y)) <= 1e-9
        assert mask[f] == 1.0


# ---------------------------------------------------------- build_features


def test_features_zero_anchors_all_zero():
    feats = build_features(AnchorSet(ControlFamily.root3d()), 9)
    assert feats.values.shape == (9, 11)
    assert not feats.values.any()


def test_features_single_anchor_mask_semantics():
    family = ControlFamily.root3d()
    y = np.array([1.0, -2.0, 0.5])
    feats = build_features(anchors_for(family, [4], [y]), 8)
    assert np.array_equal(feats.anchor_values[4], y)  # bit-exact target slot
    assert feats.anchor_mask[4] == 1.0
    assert np.count_nonzero(feats.anchor_mask) == 1
    assert not feats.anchor_values[[0, 1, 2, 3, 5, 6, 7]].any()


def test_features_two_anchor_prior_difference_is_slope():
    family = ControlFamily.planar_root()
    anchors = anchors_for(family, [2, 10], [np.zeros(2), np.array([4.0, -8.0])])
    feats = build_features(anchors, 14)
    # finite difference of the linear prior: slope per frame on (2, 10]
    slope = np.array([0.5, -1.0])
    for t in range(3, 11):
        np.testing.assert_allclose(feats.prior_diff[t], slope, atol=1e-12)
    assert np.array_equal(feats.prior_diff[0], np.zeros(2))


@pytest.mark.parametrize(
    "family",
    [ControlFamily.root3d(), ControlFamily.planar_root(), ControlFamily.body_point(0)],
)
def test_features_dimension_is_3d_plus_2(family):
    d = family.control_dim
    feats = build_features(AnchorSet(family), 5)
    assert feats.values.shape == (5, 3 * d + 2)


def test_features_masks_are_binary():
    rng = np.random.default_rng(4)
    family = ControlFamily.root3d()
    frames = np.sort(rng.choice(30, size=5, replace=False))
    anchors = anchors_for(family, frames, [rng.normal(size=3) for _ in frames])
    feats = build_features(anchors, 30)
    assert set(np.unique(feats.anchor_mask)) <= {0.0, 1.0}
    assert set(np.unique(feats.prior_mask)) <= {0.0, 1.0}


# ------------------------------------------------------ support_assignment


def test_support_radius_zero_is_anchor_frames():
    family = ControlFamily.root3d()
    anchors = anchors_for(family, [3, 9], [np.zeros(3), np.ones(3)])
    assert support_assignment(anchors, 0, 15) == {3: 0, 9: 1}


def test_support_tie_breaks_to_lower_anchor_index():
    family = ControlFamily.root3d()
    anchors = anchors_for(family, [10, 14], [np.zeros(3), np.ones(3)])
    support = support_assignment(anchors, 2, 20)
    assert support[12] == 0  # equidistant from 10 and 14
    assert support == {8: 0, 9: 0, 10: 0, 11: 0, 12: 0, 13: 1, 14: 1, 15: 1, 16: 1}


def test_support_single_anchor_at_origin():
    family = ControlFamily.root3d()
    anchors = anchors_for(family, [0], [np.zeros(3)])
    assert support_assignment(anchors, 2, 10) == {0: 0, 1: 0, 2: 0}


def test_support_monotone_in_radius():
    rng = np.random.default_rng(5)
    family = ControlFamily.root3d()
    frames = np.sort(rng.choice(50, size=6, replace=False))
    anchors = anchors_for(family, frames, [rng.normal(size=3) for _ in frames])
    previous: set[int] = set()
    for radius in range(0, 8):
        current = set(support_assignment(anchors, radius, 50))
        assert previous <= current
        previous = current


# ------------------------------------------------- supervised_anchor_loss


def test_supervised_loss_zero_on_identical_motions():
    rng = np.random.default_rng(6)
    motion = random_motion(rng)
    family = ControlFamily.root3d()
    anchors = anchors_for(family, [4, 12], [np.zeros(3), np.zeros(3)])
    assert supervised_anchor_loss(motion, motion, anchors, 3) == 0.0


def test_supervised_loss_radius_zero_cross_checks_anchor_loss():
    rng = np.random.default_rng(7)
    motion = random_motion(rng)
    gt = random_motion(rng)
    family = ControlFamily.root3d()
    frames = [2, 9, 16]
    # anchor set whose targets are the ground-truth observations
    gt_anchors = anchors_for(family, frames, observe(gt, family)[frames])
    dummy = anchors_for(family, frames, [np.zeros(3)] * 3)
    assert supervised_anchor_loss(motion, gt, dummy, 0) == pytest.approx(
        anchor_loss(motion, gt_anchors), rel=1e-12
    )


def test_supervised_loss_uniform_offset_counts_support_frames():
    base = np.zeros((40, 1, 3))
    motion = Motion(base)
    gt = Motion(base + np.array([1.0, 0.0, 0.0]))
    family = ControlFamily.root3d()
    anchors = anchors_for(family, [20], [np.zeros(3)])
    # 3 support frames x squared offset 1.0
    assert supervised_anchor_loss(motion, gt, anchors, 1) == pytest.approx(3.0, abs=1e-12)


def test_supervised_loss_shape_mismatch_raises():
    a = Motion(np.zeros((5, 1, 3)))
    b = Motion(np.zeros((6, 1, 3)))
    anchors = AnchorSet(ControlFamily.root3d())
    with pytest.raises(ValueError, match="shape"):
        supervised_anchor_loss(a, b, anchors, 1)


# --------------------------------------------------------------- residuals


def test_residuals_zero_for_perfect_motion():
    rng = np.random.default_rng(8)
    motion = random_motion(rng)
    family = ControlFamily.root3d()
    obs = observe(motion, family)
    anchors = anchors_for(family, [1, 5], obs[[1, 5]])
    assert not residuals(motion, anchors).residuals.any()


def test_residuals_are_signed_offsets():
    motion = Motion(np.zeros((10, 1, 3)))
    anchors = anchors_for(ControlFamily.root3d(), [7], [np.array([-0.1, 0.2, 0.0])])
    np.testing.assert_array_equal(
        residuals(motion, anchors).residuals, [[0.1, -0.2, 0.0]]
    )


def test_residual_loss_duality_on_random_inputs():
    rng = np.random.default_rng(9)
    for family in (ControlFamily.root3d(), ControlFamily.planar_root(), ControlFamily.body_point(2)):
        for _ in range(25):
            motion = random_motion(rng, frames=15, joints=4)
            frames = np.sort(rng.choice(15, size=4, replace=False))
            anchors = anchors_for(
                family, frames, [rng.normal(size=family.control_dim) for _ in frames]
            )
            res = residuals(motion, anchors).residuals
            assert anchor_loss(motion, anchors) == pytest.approx(
                float(np.sum(res * res)), abs=1e-12
            )


# ---------------------------------------------------------- build_intervals


def test_intervals_no_anchors_single_span():
    part = build_intervals(AnchorSet(ControlFamily.root3d()), 10)
    assert part.intervals == ((0, 9),)


def test_intervals_sort_and_pair():
    family = ControlFamily.root3d()
    anchors = anchors_for(family, [7, 3], [np.zeros(3), np.zeros(3)])
    part = build_intervals(anchors, 10)
    assert part.intervals == ((0, 3), (3, 7), (7, 9))


def test_intervals_dedupe_boundary_anchor():
    family = ControlFamily.root3d()
    anchors = anchors_for(family, [0], [np.zeros(3)])
    part = build_intervals(anchors, 5)
    assert part.intervals == ((0, 4),)


def test_intervals_cover_and_share_endpoints():
    rng = np.random.default_rng(10)
    family = ControlFamily.root3d()
    for _ in range(30):
        frames_total = int(rng.integers(4, 60))
        n = int(rng.integers(0, 6))
        frames = np.sort(rng.choice(frames_total, size=min(n, frames_total), replace=False))
        anchors = anchors_for(family, frames, [rng.normal(size=3) for _ in frames])
        part = build_intervals(anchors, frames_total)
        assert part.start == 0 and part.end == frames_total - 1
        covered = set()
        for lo, hi in part.intervals:
            covered.update(range(lo, hi + 1))
        assert covered == set(range(frames_total))


# ------------------------------------------------------------- type checks


def test_anchor_set_rejects_duplicates_and_sorts():
    family = ControlFamily.root3d()
    a = Anchor(5, np.zeros(3))
    with pytest.raises(ValueError, match="duplicate"):
        AnchorSet(family, (a, Anchor(5, np.ones(3))))
    anchors = AnchorSet(family, (Anchor(9, np.zeros(3)), Anchor(2, np.ones(3))))
    assert [x.frame for x in anchors.anchors] == [2, 9]


def test_motion_validation():
    with pytest.raises(ValueError):
        Motion(np.zeros((1, 2, 3)))  # too few frames
    with pytest.raises(ValueError):
        Motion(np.full((3, 2, 3), np.nan))
    with pytest.raises(ValueError):
        Motion(np.zeros((3, 2, 2)))
