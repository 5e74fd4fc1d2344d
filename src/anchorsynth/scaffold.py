"""Anchor scaffold construction.

Sparse anchors are (frame, target) constraints on the subspace of a motion
that their control family observes. This module turns an anchor set into
everything the rest of the pipeline consumes: frame-level condition features
with an interpolation prior, local-support supervision maps, post-generation
residuals, and the temporal interval partition used for routed refinement.

All functions are pure; values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .motion import ControlFamily, Motion, observe


@dataclass(frozen=True)
class Anchor:
    """A single sparse constraint: the observed value at one frame."""

    frame: int
    target: np.ndarray

    def __post_init__(self):
        # a read-only copy: the anchor never moves with the caller's array
        tgt = np.array(self.target, dtype=np.float64, ndmin=1)
        if tgt.ndim != 1:
            raise ValueError("anchor target must be a flat vector")
        if not np.isfinite(tgt).all():
            raise ValueError("anchor target must be finite")
        tgt.setflags(write=False)
        object.__setattr__(self, "frame", int(self.frame))
        object.__setattr__(self, "target", tgt)


@dataclass(frozen=True)
class AnchorSet:
    """Anchors of one control family, sorted by frame, one per frame."""

    family: ControlFamily
    anchors: tuple[Anchor, ...] = ()

    def __post_init__(self):
        for a in self.anchors:
            if a.target.shape != (self.family.control_dim,):
                raise ValueError(
                    f"anchor target dim {a.target.shape[0]} != control dim "
                    f"{self.family.control_dim}"
                )
            if a.frame < 0:
                raise ValueError("anchor frame must be nonnegative")
        anchors = tuple(sorted(self.anchors, key=lambda a: a.frame))
        if len({a.frame for a in anchors}) != len(anchors):
            raise ValueError("duplicate anchor frames")
        object.__setattr__(self, "anchors", anchors)

    def __len__(self) -> int:
        return len(self.anchors)

    @cached_property
    def frames(self) -> np.ndarray:
        """Anchor frames, built on first use; read-only, as the anchors are."""
        frames = np.array([a.frame for a in self.anchors], dtype=np.int64)
        frames.setflags(write=False)
        return frames

    @cached_property
    def targets(self) -> np.ndarray:
        """(K, d_f) anchor targets, built on first use; read-only."""
        if self.anchors:
            targets = np.stack([a.target for a in self.anchors])
        else:
            targets = np.zeros((0, self.family.control_dim))
        targets.setflags(write=False)
        return targets

    def validate_for(self, motion: Motion) -> None:
        self.family.validate_for(motion)
        if self.anchors and self.anchors[-1].frame >= motion.frames:
            raise ValueError("anchor frame beyond motion length")


@dataclass(frozen=True)
class ScaffoldFeatures:
    """Per-frame condition features, shape (T, 3*d_f + 2).

    Column layout: masked anchor values (d_f), masked interpolation prior
    (d_f), prior first difference (d_f), prior mask (1), anchor mask (1).
    Masks are stored as real 0/1 values so the feature rows are homogeneous.
    """

    values: np.ndarray
    control_dim: int

    @property
    def anchor_values(self) -> np.ndarray:
        return self.values[:, : self.control_dim]

    @property
    def prior(self) -> np.ndarray:
        return self.values[:, self.control_dim : 2 * self.control_dim]

    @property
    def prior_diff(self) -> np.ndarray:
        return self.values[:, 2 * self.control_dim : 3 * self.control_dim]

    @property
    def prior_mask(self) -> np.ndarray:
        return self.values[:, 3 * self.control_dim]

    @property
    def anchor_mask(self) -> np.ndarray:
        return self.values[:, 3 * self.control_dim + 1]


@dataclass(frozen=True)
class IntervalPartition:
    """Contiguous cover of [0, T-1] by intervals whose endpoints are anchor
    frames or the sequence boundaries. Adjacent intervals share an endpoint."""

    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ivs = tuple((int(s), int(e)) for s, e in self.intervals)
        if not ivs:
            raise ValueError("empty interval partition")
        for s, e in ivs:
            if e <= s:
                raise ValueError(f"interval ({s}, {e}) must span at least one frame")
        for (_, e0), (s1, _) in zip(ivs, ivs[1:]):
            if e0 != s1:
                raise ValueError("intervals must share endpoints")
        object.__setattr__(self, "intervals", ivs)

    def __len__(self) -> int:
        return len(self.intervals)

    @property
    def start(self) -> int:
        return self.intervals[0][0]

    @property
    def end(self) -> int:
        return self.intervals[-1][1]


@dataclass(frozen=True)
class ResidualScaffold:
    """Anchors augmented with the control error of a generated motion."""

    anchors: AnchorSet
    residuals: np.ndarray

    def __post_init__(self):
        res = np.asarray(self.residuals, dtype=np.float64)
        if res.shape != (len(self.anchors), self.anchors.family.control_dim):
            raise ValueError("one residual per anchor required")
        if not np.isfinite(res).all():
            raise ValueError("residuals must be finite")
        object.__setattr__(self, "residuals", res)


def anchor_loss(motion: Motion, anchors: AnchorSet) -> float:
    """Sum of squared control errors over the anchors; 0 iff all satisfied."""
    anchors.validate_for(motion)
    if not len(anchors):
        return 0.0
    obs = observe(motion, anchors.family)
    diff = obs[anchors.frames] - anchors.targets
    return float(np.sum(diff * diff))


def _natural_cubic_eval(xk: np.ndarray, yk: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Evaluate the natural cubic spline through (xk, yk) at query points xq.

    Solves the tridiagonal system for the knot second derivatives with zero
    curvature at both ends, then evaluates the piecewise cubic. ``xk`` must be
    strictly increasing with at least 3 knots.
    """
    n = len(xk)
    h = np.diff(xk)
    slope = np.diff(yk) / h

    # Thomas solve for interior second derivatives m[1..n-2]; m[0] = m[-1] = 0.
    m = np.zeros(n)
    if n > 2:
        diag = 2.0 * (h[:-1] + h[1:])
        rhs = 6.0 * (slope[1:] - slope[:-1])
        upper = h[1:-1].copy()
        lower = h[1:-1].copy()
        cp = np.zeros(n - 3)
        for i in range(n - 3):
            cp[i] = upper[i] / diag[i]
            diag[i + 1] -= lower[i] * cp[i]
            rhs[i + 1] -= cp[i] * rhs[i]
        sol = np.zeros(n - 2)
        sol[-1] = rhs[-1] / diag[-1]
        for i in range(n - 4, -1, -1):
            sol[i] = (rhs[i] - upper[i] * sol[i + 1]) / diag[i]
        m[1:-1] = sol

    idx = np.clip(np.searchsorted(xk, xq) - 1, 0, n - 2)
    x0, x1 = xk[idx], xk[idx + 1]
    hi = x1 - x0
    a = (x1 - xq) / hi
    b = (xq - x0) / hi
    return (
        a * yk[idx]
        + b * yk[idx + 1]
        + ((a**3 - a) * m[idx] + (b**3 - b) * m[idx + 1]) * hi * hi / 6.0
    )


def interp_prior(anchors: AnchorSet, frames_total: int) -> tuple[np.ndarray, np.ndarray]:
    """Smooth prior through the anchors and its validity mask.

    Returns (p, m_p) where p has shape (T, d_f) and m_p is a 0/1 vector of
    length T. The prior is a per-component natural cubic spline when there
    are at least 3 anchors, straight-line interpolation for 2, a point value
    for 1, and all zero for none. It is defined exactly on the closed span
    [first anchor frame, last anchor frame]; outside, p is 0 and m_p is 0.
    """
    if frames_total < 1:
        raise ValueError("frames_total must be at least 1")
    d = anchors.family.control_dim
    p = np.zeros((frames_total, d))
    mask = np.zeros(frames_total)
    n = len(anchors)
    if n == 0:
        return p, mask

    frames = anchors.frames
    targets = anchors.targets
    lo, hi = int(frames[0]), int(frames[-1])
    mask[lo : hi + 1] = 1.0
    span = np.arange(lo, hi + 1, dtype=np.float64)

    if n == 1:
        p[lo] = targets[0]
        return p, mask

    xk = frames.astype(np.float64)
    for c in range(d):
        if n == 2:
            p[lo : hi + 1, c] = np.interp(span, xk, targets[:, c])
        else:
            p[lo : hi + 1, c] = _natural_cubic_eval(xk, targets[:, c], span)
    # pin the anchor frames to the targets bit-exactly
    p[frames] = targets
    return p, mask


def build_features(anchors: AnchorSet, frames_total: int) -> ScaffoldFeatures:
    """Assemble per-frame condition features [m_a*a, m_p*p, dp, m_p, m_a]."""
    d = anchors.family.control_dim
    prior, prior_mask = interp_prior(anchors, frames_total)
    values = np.zeros((frames_total, 3 * d + 2))

    anchor_mask = np.zeros(frames_total)
    if len(anchors):
        frames = anchors.frames
        anchor_mask[frames] = 1.0
        values[frames, :d] = anchors.targets

    # first difference of the prior, zero at the sequence start
    dp = np.diff(prior, axis=0, prepend=prior[:1])

    values[:, d : 2 * d] = prior_mask[:, None] * prior
    values[:, 2 * d : 3 * d] = dp
    values[:, 3 * d] = prior_mask
    values[:, 3 * d + 1] = anchor_mask
    return ScaffoldFeatures(values, d)


def support_assignment(
    anchors: AnchorSet, radius: int, frames_total: int
) -> dict[int, int]:
    """Map every frame within ``radius`` of an anchor to its nearest anchor.

    Equidistant frames break ties toward the lower anchor index, which is
    deterministic because anchors are kept sorted by frame.
    """
    if radius < 0:
        raise ValueError("support radius must be nonnegative")
    if not len(anchors):
        return {}
    frames = anchors.frames
    t = np.arange(frames_total)
    dist = np.abs(t[:, None] - frames[None, :])
    nearest = np.argmin(dist, axis=1)  # first minimum = lower anchor index
    within = dist[t, nearest] <= radius
    return {int(ft): int(ix) for ft, ix in zip(t[within], nearest[within])}


def supervised_anchor_loss(
    motion: Motion, gt_motion: Motion, anchors: AnchorSet, radius: int
) -> float:
    """Squared control error against the ground truth over the support set."""
    if motion.positions.shape != gt_motion.positions.shape:
        raise ValueError(
            f"motion shape {motion.positions.shape} != ground truth "
            f"{gt_motion.positions.shape}"
        )
    anchors.validate_for(motion)
    support = support_assignment(anchors, radius, motion.frames)
    if not support:
        return 0.0
    frames = np.fromiter(support.keys(), dtype=np.int64)
    obs = observe(motion, anchors.family)[frames]
    target = observe(gt_motion, anchors.family)[frames]
    diff = obs - target
    return float(np.sum(diff * diff))


def residuals(motion: Motion, anchors: AnchorSet) -> ResidualScaffold:
    """Per-anchor control error of a generated motion: observed - target."""
    anchors.validate_for(motion)
    if not len(anchors):
        return ResidualScaffold(anchors, np.zeros((0, anchors.family.control_dim)))
    obs = observe(motion, anchors.family)
    return ResidualScaffold(anchors, obs[anchors.frames] - anchors.targets)


def build_intervals(anchors: AnchorSet, frames_total: int) -> IntervalPartition:
    """Partition [0, T-1] at the anchor frames.

    Endpoints are the sorted, deduplicated union of {0, T-1} and the anchor
    frames; consecutive endpoint pairs form the intervals. With no anchors
    the partition is the single interval [0, T-1].
    """
    if frames_total < 2:
        raise ValueError("need at least 2 frames to build intervals")
    points = sorted({0, frames_total - 1, *(int(f) for f in anchors.frames)})
    if points[0] < 0 or points[-1] > frames_total - 1:
        raise ValueError("anchor frames outside [0, T-1]")
    return IntervalPartition(tuple(zip(points[:-1], points[1:])))
