"""Interval-routed soft-token refinement.

After discrete generation, the token sequence is relaxed to its embedding
rows (soft tokens) and optimized directly against the anchor objective. Raw
gradient-descent updates are not applied as-is: each update is projected
onto a blockwise piecewise-affine basis over the anchor intervals, with a
per-interval ridge whose strength falls as the interval's endpoint anchor
error grows. Intervals that already satisfy their anchors are softly frozen;
violated intervals receive correction capacity.

The interval basis is built once from the fixed anchor times. At every step
one observation of the decoded motion gives the objective, its gradient and
the anchor residuals, and the activities are read from those residuals;
decoder parameters never change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Protocol

import numpy as np

from .motion import Motion, observation_adjoint, observe
from .scaffold import AnchorSet, IntervalPartition, ResidualScaffold
from .tokenflow import Codebook, TokenSeq

# a guarded gradient step may raise the objective by at most this factor
GUARD_SLACK = 1.0 + 1e-9
# a 2x2 routing block with det <= _BLOCK_RCOND * trace^2, so an eigenvalue
# ratio of about that size, counts as singular
_BLOCK_RCOND = 1e-12


@dataclass(frozen=True)
class SoftTokens:
    """Continuous token embeddings u plus the frozen initial snapshot u0."""

    u: np.ndarray
    u0: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        u0 = np.asarray(self.u0, dtype=np.float64).copy()
        if u.ndim != 2 or u.shape != u0.shape:
            raise ValueError("u and u0 must be matching (L, d_u) arrays")
        if not (np.isfinite(u).all() and np.isfinite(u0).all()):
            raise ValueError("soft tokens must be finite")
        u0.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "u0", u0)

    def moved_to(self, u_new: np.ndarray) -> "SoftTokens":
        return SoftTokens(u_new, self.u0)


class DecoderModel(Protocol):
    """Differentiable map from soft tokens (L, d_u) to a motion (T, J, 3).

    ``vjp`` must be the exact adjoint of ``decode``: given a motion-space
    cotangent it returns the pulled-back (L, d_u) gradient. Implementations
    must be deterministic and safe for concurrent read-only use.
    """

    def decode(self, u: np.ndarray) -> Motion: ...

    def vjp(self, u: np.ndarray, cotangent: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class SolverConfig:
    """Refinement weights and optimizer settings.

    The feasibility hinge is off by default. The loss weights, ridge,
    and step size are tuned desk-scale defaults recorded here, not values
    with any outside provenance.
    """

    smooth_weight: float = 0.1
    trust_weight: float = 0.01
    feasibility_weight: float = 0.0
    ridge: float = 0.1
    max_speed: float = 1.0
    step_size: float = 0.01
    steps: int = 200
    optimizer: str = "gd"
    momentum: float = 0.9

    def __post_init__(self):
        for name in ("smooth_weight", "trust_weight", "feasibility_weight"):
            w = getattr(self, name)
            if not (np.isfinite(w) and w >= 0):
                raise ValueError(f"{name} must be finite and nonnegative")
        if not (self.ridge >= 0 and np.isfinite(self.ridge)):
            raise ValueError("ridge must be nonnegative")
        if self.max_speed <= 0:
            raise ValueError("max_speed must be positive")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.optimizer not in ("gd", "heavy_ball"):
            raise ValueError("optimizer must be 'gd' or 'heavy_ball'")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")


@dataclass
class OptState:
    """Momentum buffer for the heavy-ball optimizer."""

    velocity: np.ndarray | None = None


@dataclass(frozen=True)
class BasisMatrix:
    """Blockwise transport/slope basis over the anchor intervals.

    Column block i covers tokens whose center frame falls in interval i;
    within the block, the first column is the constant 1 and the second is
    2s - 1 for normalized position s in [0, 1]. ``token_interval`` records
    the assignment. Each row is nonzero only in its own interval's two
    columns, so B^T B is block-diagonal, and its 2x2 blocks are computed
    once.
    """

    matrix: np.ndarray
    token_interval: np.ndarray

    @property
    def num_intervals(self) -> int:
        return self.matrix.shape[1] // 2

    @cached_property
    def gram_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entries (p, q, r) of each interval's 2x2 diagonal block of B^T B."""
        const, slope = self.matrix[:, 0::2], self.matrix[:, 1::2]
        return (
            np.einsum("ni,ni->i", const, const),
            np.einsum("ni,ni->i", const, slope),
            np.einsum("ni,ni->i", slope, slope),
        )


@dataclass(frozen=True)
class ActivityVector:
    """Per-interval correction budgets in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError("activities must be a vector")
        if ((vals < 0) | (vals > 1)).any():
            raise ValueError("activities must lie in [0, 1]")
        object.__setattr__(self, "values", vals)

    @property
    def mean(self) -> float:
        values = self.values
        return float(values.sum() / values.size) if values.size else 0.0


def soft_init(tokens: TokenSeq, cb: Codebook) -> SoftTokens:
    """Table lookup of the token embeddings; the result is also the snapshot."""
    if np.any(tokens.ids >= cb.size):
        raise ValueError("token id out of range for codebook")
    u = cb.embeddings[tokens.ids].copy()
    return SoftTokens(u, u)


class _Point(NamedTuple):
    """Soft tokens with their objective, its parts, the motion-space gradient
    of the motion terms and the anchor residuals, all from one decode."""

    soft: SoftTokens
    parts: dict[str, float]
    value: float
    cotangent: np.ndarray
    residuals: ResidualScaffold

    def gradient(self, dec: DecoderModel, cfg: SolverConfig) -> np.ndarray:
        """Exact gradient of the objective with respect to the soft tokens."""
        u, u0 = self.soft.u, self.soft.u0
        grad = dec.vjp(u, self.cotangent) + 2.0 * cfg.trust_weight * (u - u0)
        if not np.isfinite(grad).all():
            raise FloatingPointError("non-finite gradient")
        return grad


def _evaluate(
    soft: SoftTokens, dec: DecoderModel, anchors: AnchorSet, cfg: SolverConfig
) -> _Point:
    """Decode and observe once; every term and its cotangent reuse the observation."""
    motion = dec.decode(soft.u)
    frames = motion.frames
    if cfg.smooth_weight > 0 and frames < 3:
        raise ValueError("smoothness term needs at least 3 frames")
    if cfg.feasibility_weight > 0 and frames < 2:
        raise ValueError("feasibility term needs at least 2 frames")
    anchors.validate_for(motion)
    family = anchors.family
    obs = observe(motion, family)

    idx = anchors.frames
    residual = obs[idx] - anchors.targets
    g_obs = np.zeros(obs.shape)
    g_obs[idx] += 2.0 * residual
    parts = {"anc": float((residual * residual).sum()), "sm": 0.0, "tr": 0.0, "feas": 0.0}

    if cfg.smooth_weight > 0:
        second = obs[2:] - 2.0 * obs[1:-1] + obs[:-2]
        parts["sm"] = cfg.smooth_weight * float((second * second).sum()) / (frames - 2)
        g_sm = np.zeros(obs.shape)
        g_sm[:-2] += second
        g_sm[1:-1] -= 2.0 * second
        g_sm[2:] += second
        g_obs += 2.0 * cfg.smooth_weight / (frames - 2) * g_sm

    diff = soft.u - soft.u0
    parts["tr"] = cfg.trust_weight * float((diff * diff).sum())

    cot = observation_adjoint(g_obs, family, motion.joints)
    if cfg.feasibility_weight > 0:
        vel = np.diff(motion.positions[:, 0, :], axis=0)
        speeds = np.linalg.norm(vel, axis=1)
        excess = np.maximum(speeds - cfg.max_speed, 0.0)
        parts["feas"] = cfg.feasibility_weight * float((excess * excess).sum()) / (frames - 1)
        active = excess > 0
        g_vel = np.zeros(vel.shape)
        if active.any():
            g_vel[active] = (
                2.0
                * cfg.feasibility_weight
                / (frames - 1)
                * (excess[active] / speeds[active])[:, None]
                * vel[active]
            )
        cot[1:, 0, :] += g_vel
        cot[:-1, 0, :] -= g_vel

    value = parts["anc"] + parts["sm"] + parts["tr"] + parts["feas"]
    return _Point(soft, parts, value, cot, ResidualScaffold(anchors, residual))


def objective(
    soft: SoftTokens, dec: DecoderModel, anchors: AnchorSet, cfg: SolverConfig
) -> tuple[float, dict[str, float]]:
    """Refinement objective and its additive parts {anc, sm, tr, feas}."""
    point = _evaluate(soft, dec, anchors, cfg)
    return point.value, point.parts


def grad_objective(
    soft: SoftTokens, dec: DecoderModel, anchors: AnchorSet, cfg: SolverConfig
) -> np.ndarray:
    """Exact gradient of the objective with respect to the soft tokens."""
    return _evaluate(soft, dec, anchors, cfg).gradient(dec, cfg)


def opt_step(
    soft: SoftTokens, grad: np.ndarray, cfg: SolverConfig, state: OptState
) -> np.ndarray:
    """Raw optimizer update (not applied): -eta*g, or the heavy-ball velocity."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != soft.u.shape:
        raise ValueError("gradient shape must match the soft tokens")
    if cfg.optimizer == "gd":
        return -cfg.step_size * grad
    if state.velocity is None:
        state.velocity = np.zeros_like(grad)
    state.velocity = cfg.momentum * state.velocity - cfg.step_size * grad
    return state.velocity.copy()


def build_basis(intervals: IntervalPartition, length: int, ratio: int) -> BasisMatrix:
    """Assemble the (L, 2|I|) transport/slope basis on the token grid.

    Token n has center frame n*ratio + (ratio-1)/2 and belongs to the
    interval containing its center (intervals are right-open except the
    last; centers past the final endpoint, which exist when the token grid
    is padded, fold into the last interval). Normalized position s is
    clipped to [0, 1].
    """
    if length < 1 or ratio < 1:
        raise ValueError("length and ratio must be positive")
    if intervals.end > length * ratio - 1:
        raise ValueError("token grid does not cover the interval partition")
    lo, hi = np.array(intervals.intervals, dtype=np.float64).T
    width = hi - lo  # positive: a partition rejects empty intervals
    centers = np.arange(length) * ratio + (ratio - 1) / 2.0

    assign = np.clip(np.searchsorted(lo, centers, side="right") - 1, 0, len(width) - 1)
    s = np.clip((centers - lo[assign]) / width[assign], 0.0, 1.0)
    rows = np.arange(length)
    matrix = np.zeros((length, 2 * len(width)))
    matrix[rows, 2 * assign] = 1.0
    matrix[rows, 2 * assign + 1] = 2.0 * s - 1.0
    return BasisMatrix(matrix, assign.astype(np.int64))


def activities(
    scaffold: ResidualScaffold, intervals: IntervalPartition, tolerance: float
) -> ActivityVector:
    """Per-interval budgets from the larger endpoint anchor residual.

    An endpoint that is a sequence boundary rather than an anchor contributes
    zero error. Errors are the unsquared Euclidean norms of the residuals in
    the control space, scaled by the tolerance and clipped to [0, 1].
    """
    if not (tolerance > 0):
        raise ValueError("tolerance must be positive")
    # math.sqrt of one dot per row is np.linalg.norm's own arithmetic, bit
    # for bit; a norm over all rows at once rounds some rows differently
    frames = scaffold.anchors.frames.tolist()
    err_at = {f: math.sqrt(r.dot(r)) for f, r in zip(frames, scaffold.residuals)}
    vals = np.array(
        [
            max(err_at.get(lo, 0.0), err_at.get(hi, 0.0))
            for lo, hi in intervals.intervals
        ]
    )
    return ActivityVector((vals / tolerance).clip(0.0, 1.0))


def route(
    delta: np.ndarray, basis: BasisMatrix, activity: ActivityVector, ridge: float
) -> tuple[np.ndarray, np.ndarray]:
    """Project a raw update onto the interval basis with activity-gated ridge.

    Solves (B^T B + ridge * W) alpha = B^T delta, where W repeats (1 - a_i)
    twice per interval; the routed update is B @ alpha. Row n of B is
    nonzero only in the two columns of interval ``token_interval[n]``, so
    the system is block-diagonal with one 2x2 block per interval, and each
    block is solved in closed form. A singular block gets its minimum-norm
    pseudo-inverse solution: a fully active interval (a_i = 1) with a single
    token projects the update onto the block's span, and an interval without
    tokens gets zero coefficients.
    With ridge = 0 the basis must have full column rank. Returns (routed
    update, coefficients).
    """
    delta = np.asarray(delta, dtype=np.float64)
    b = basis.matrix
    if delta.ndim != 2 or delta.shape[0] != b.shape[0]:
        raise ValueError("update must be (L, d_u) matching the basis rows")
    count = basis.num_intervals
    if activity.values.shape[0] != count:
        raise ValueError("one activity per interval required")

    # diagonal 2x2 block [[p, q], [q, r]] of B^T B + ridge * W per interval
    weight = ridge * (1.0 - activity.values)
    p, q, r = basis.gram_blocks
    p, r = p + weight, r + weight
    det = p * r - q * q
    trace = p + r
    regular = det > _BLOCK_RCOND * trace * trace
    if ridge == 0 and not regular.all():
        raise np.linalg.LinAlgError(
            "routed solve with ridge = 0 requires a full-column-rank basis"
        )
    # adjugate / det inverts a regular block; a singular one, M = t v v^T
    # with t its trace, has pseudo-inverse M / t^2 (zero when M is zero)
    denom = np.where(regular, det, np.where(trace > 0, trace * trace, 1.0))
    inverse = np.where(regular, [r, -q, -q, p], [p, q, q, r]) / denom
    rhs = (b.T @ delta).reshape(count, 2, -1)
    alpha = (inverse.T.reshape(count, 2, 2) @ rhs).reshape(2 * count, -1)
    return b @ alpha, alpha


@dataclass(frozen=True)
class RefineStep:
    """One refinement trace row."""

    step: int
    objective: float
    anchor_loss: float
    mean_activity: float
    update_norm: float


def refine(
    soft0: SoftTokens,
    dec: DecoderModel,
    anchors: AnchorSet,
    intervals: IntervalPartition,
    cfg: SolverConfig,
    ratio: int,
) -> tuple[SoftTokens, list[RefineStep]]:
    """Run the routed refinement loop for ``cfg.steps`` iterations.

    Per step: decode and evaluate the objective, its gradient and the anchor
    residuals in one pass, refresh the activities from those residuals, form
    the raw optimizer update, route it through the interval basis, and
    apply. The basis is built once; u0 is never touched.

    Gradient descent is guarded against a step size above the stability
    bound: when a step raised the objective above (1 + 1e-9) times the last
    accepted objective, the loop returns to the last accepted point and
    halves the step size. That step's trace row describes the accepted
    point, so the traced objective never rises, and the result is never
    worse than the start. A routed step below 2 / Lipschitz never raises a
    quadratic objective, so a stable run takes exactly the unguarded steps.
    Heavy-ball momentum is not guarded.
    """
    basis = build_basis(intervals, soft0.u.shape[0], ratio)
    soft = SoftTokens(soft0.u.copy(), soft0.u0)
    state = OptState()
    trace: list[RefineStep] = []
    guarded = cfg.optimizer == "gd"
    step_cfg = cfg
    accepted: _Point | None = None

    # one pass more than there are steps checks the result of the last step
    for k in range(cfg.steps + 1):
        point = _evaluate(soft, dec, anchors, cfg)
        if guarded and accepted is not None and not point.value <= GUARD_SLACK * accepted.value:
            point = accepted
            step_cfg = replace(step_cfg, step_size=step_cfg.step_size / 2)
        accepted = point
        soft = point.soft
        if k == cfg.steps:
            break
        act = activities(point.residuals, intervals, anchors.family.tolerance)
        raw = opt_step(soft, point.gradient(dec, cfg), step_cfg, state)
        routed, _ = route(raw, basis, act, cfg.ridge)
        soft = soft.moved_to(soft.u + routed)
        flat = routed.ravel()
        trace.append(
            RefineStep(
                step=k,
                objective=point.value,
                anchor_loss=point.parts["anc"],
                mean_activity=act.mean,
                update_norm=math.sqrt(flat.dot(flat)),
            )
        )
    return soft, trace
