"""Metric-guided discrete-flow generation over a token codebook.

Tokens live in a finite codebook with a metric induced by embedding cosine
similarity. A time-indexed corruption distribution concentrates on the clean
token as t grows; sampling runs the reverse process as a continuous-time
jump chain whose rates only ever move a position strictly closer (in the
codebook metric) to the predicted clean token.

Randomness is explicit: every stochastic operation takes a seeded
``numpy.random.Generator``. Sampling consumes the stream in a documented
order (see :func:`sample`), so per-position work may be parallelized without
changing results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Protocol

import numpy as np

from . import _kernels


@dataclass(frozen=True)
class Codebook:
    """Finite embedding table, shape (size, dim); every row has norm > 0."""

    embeddings: np.ndarray

    def __post_init__(self):
        emb = np.array(self.embeddings, dtype=np.float64)  # read-only copy: no stale metric
        if emb.ndim != 2 or emb.shape[0] < 1:
            raise ValueError("embeddings must be a (size, dim) array")
        if not np.all(np.isfinite(emb)):
            raise ValueError("invalid codebook: non-finite embedding")
        norms = np.linalg.norm(emb, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("invalid codebook: zero-norm embedding row")
        emb.setflags(write=False)
        object.__setattr__(self, "embeddings", emb)

    @property
    def size(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    @cached_property
    def distances(self) -> np.ndarray:
        """Pairwise metric distances (2 - 2 cos)^2, zero diagonal; cached, read-only."""
        unit = self.embeddings / np.linalg.norm(self.embeddings, axis=1, keepdims=True)
        cos = np.clip(unit @ unit.T, -1.0, 1.0)
        dist = (2.0 - 2.0 * cos) ** 2
        np.fill_diagonal(dist, 0.0)
        dist.setflags(write=False)
        return dist


@dataclass(frozen=True)
class TokenSeq:
    """A sequence of token ids into some codebook."""

    ids: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        if ids.ndim != 1 or ids.size < 1:
            raise ValueError("token ids must be a nonempty 1-D integer array")
        if np.any(ids < 0):
            raise ValueError("token ids must be nonnegative")
        object.__setattr__(self, "ids", ids)

    def __len__(self) -> int:
        return self.ids.shape[0]


@dataclass(frozen=True)
class FlowSchedule:
    """Corruption schedule beta(t) = scale * (t / (1-t))**exponent.

    ``steps`` is the number of sampler iterations over the uniform grid
    t_k = k * t_max / steps; ``t_max`` stays below 1 to avoid the blow-up of
    beta at the endpoint.
    """

    exponent: float = 0.9
    scale: float = 3.0
    steps: int = 64
    t_max: float = 1.0 - 1e-3

    def __post_init__(self):
        if self.exponent <= 0 or self.scale <= 0:
            raise ValueError("exponent and scale must be positive")
        if self.steps < 1:
            raise ValueError("schedule needs at least one step")
        if not (0.0 < self.t_max < 1.0):
            raise ValueError("t_max must lie in (0, 1)")

    def beta(self, t: float) -> float:
        if not (0.0 <= t < 1.0):
            raise ValueError(f"beta is defined on [0, 1), got t={t}")
        if t == 0.0:
            return 0.0
        return self.scale * (t / (1.0 - t)) ** self.exponent

    def beta_prime(self, t: float) -> float:
        # for exponent < 1 the derivative diverges as t -> 0+, so the domain
        # is the open interval; the sampler grid never evaluates t = 0
        if not (0.0 < t < 1.0):
            raise ValueError(f"beta_prime is defined on (0, 1), got t={t}")
        ratio = t / (1.0 - t)
        return self.scale * self.exponent * ratio ** (self.exponent - 1.0) / (1.0 - t) ** 2


class Denoiser(Protocol):
    """Clean-token proposal model queried once per sampler step.

    ``predict`` returns either hard ids of shape (L,) or logits of shape
    (L, V); logits are reduced by argmax with lowest-id tie-break.
    """

    def predict(self, tokens: TokenSeq, t: float, context: object | None) -> np.ndarray: ...


def metric_distance(cb: Codebook, i: int, x1: int) -> float:
    """Squared (2 - 2 cos) distance between two codebook entries."""
    v = cb.size
    if not (0 <= i < v and 0 <= x1 < v):
        raise ValueError("token id out of range")
    return float(cb.distances[i, x1])


def _corruption_rows(cb: Codebook, t: float, sched: FlowSchedule, ids: np.ndarray) -> np.ndarray:
    """Row n is q_t(. | ids[n]); shape (len(ids), V).

    The softmax runs once per distinct id and is gathered back per position.
    A presence mask over the codebook finds the distinct ids in sorted order
    without ``np.unique``, whose sort code adds ~0.6 MB to resident memory
    the first time it runs (numpy 2.4, x86-64).
    """
    present = np.zeros(cb.size, dtype=bool)
    present[ids] = True
    logits = -sched.beta(t) * cb.distances[present]
    logits -= logits.max(axis=1, keepdims=True)
    num = np.exp(logits)
    # the row of id c is the number of distinct ids below c
    return (num / num.sum(axis=1, keepdims=True))[np.cumsum(present)[ids] - 1]


def corruption_dist(cb: Codebook, x1: int, t: float, sched: FlowSchedule) -> np.ndarray:
    """Corruption distribution q_t(. | x1) over the codebook.

    The sampler's softmax row of -beta(t) * d(., x1) (``_corruption_rows``).
    At t = 0 it is uniform; as t grows it concentrates on x1.
    """
    if not (0 <= x1 < cb.size):
        raise ValueError("token id out of range")
    if not (0.0 <= t <= sched.t_max):
        raise ValueError(f"t must lie in [0, t_max], got {t}")
    return _corruption_rows(cb, t, sched, np.array([x1]))[0]


def corrupt(
    clean: TokenSeq, t: float, cb: Codebook, sched: FlowSchedule, rng: np.random.Generator
) -> TokenSeq:
    """Sample a corrupted sequence, one independent categorical per position."""
    if not (0.0 <= t <= sched.t_max):
        raise ValueError(f"t must lie in [0, t_max], got {t}")
    if np.any(clean.ids >= cb.size):
        raise ValueError("token id out of range for codebook")
    probs = _corruption_rows(cb, t, sched, clean.ids)
    ids = _kernels.weighted_pick(probs, rng.random(len(clean)))
    return TokenSeq(ids)


def denoise_loss(logits: np.ndarray, clean: TokenSeq) -> float:
    """Summed cross entropy of per-position logits against the clean ids."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits must be finite")
    if logits.ndim != 2 or logits.shape[0] != len(clean):
        raise ValueError(f"logits shape {logits.shape} does not match sequence")
    if np.any(clean.ids >= logits.shape[1]):
        raise ValueError("clean id out of range for logits")
    m = logits.max(axis=1)
    lse = m + np.log(np.sum(np.exp(logits - m[:, None]), axis=1))
    picked = logits[np.arange(len(clean)), clean.ids]
    return float(np.sum(lse - picked))


def training_objective(ce: float, anchor_sup: float, anchor_weight: float = 0.3) -> float:
    """Combined training loss: cross entropy plus weighted anchor supervision."""
    total = ce + anchor_weight * anchor_sup
    if not np.isfinite(total):
        raise ValueError("non-finite training objective")
    return float(total)


def jump_rates(
    cb: Codebook, current: int, proposal: int, t: float, sched: FlowSchedule
) -> np.ndarray:
    """Transition rates u_t(. | current, proposal) over the codebook.

    Positive only for candidates strictly closer to the proposal than the
    current token; in particular the rate of staying put is zero.
    """
    v = cb.size
    if not (0 <= current < v and 0 <= proposal < v):
        raise ValueError("token id out of range")
    if not (0.0 < t <= sched.t_max):
        raise ValueError(f"t must lie in (0, t_max], got {t}")
    q = corruption_dist(cb, proposal, t, sched)
    gap = np.maximum(cb.distances[current, proposal] - cb.distances[:, proposal], 0.0)
    return q * sched.beta_prime(t) * gap


def _proposal_ids(raw: np.ndarray, length: int, vocab: int) -> np.ndarray:
    raw = np.asarray(raw)
    if raw.ndim == 2:
        if raw.shape != (length, vocab):
            raise ValueError(f"denoiser logits shape {raw.shape} != ({length}, {vocab})")
        ids = np.argmax(raw, axis=1).astype(np.int64)  # first max = lowest id
    elif raw.ndim == 1:
        ids = raw.astype(np.int64)
        if ids.shape[0] != length:
            raise ValueError(f"denoiser returned {ids.shape[0]} ids, expected {length}")
        if np.any((ids < 0) | (ids >= vocab)):
            raise ValueError("denoiser id out of range")
    else:
        raise ValueError("denoiser must return ids (L,) or logits (L, V)")
    return ids


def _step_ids(
    ids: np.ndarray,
    proposal: np.ndarray,
    t: float,
    h: float,
    cb: Codebook,
    sched: FlowSchedule,
    rng: np.random.Generator,
) -> np.ndarray:
    """Jump-chain update computed on live rows only.

    A position at its proposal has rate zero and never moves, so only live
    positions (``ids != proposal``) get rate rows, and only those that move
    get a destination draw. The (L, 2) uniform block is still drawn in full
    (column 0 decides whether to move, column 1 picks the destination), so
    the stream order matches an update of every position.
    """
    u = rng.random((ids.shape[0], 2))
    live = np.flatnonzero(ids != proposal)
    target = proposal[live]
    corruption = _corruption_rows(cb, t, sched, target)
    rates, totals = _kernels.rate_rows(ids[live], target, cb.distances, corruption)
    p_move = -np.expm1(-h * sched.beta_prime(t) * totals)
    moves = (totals > 0.0) & (u[live, 0] < p_move)
    out = ids.copy()
    out[live[moves]] = _kernels.weighted_pick(rates[moves], u[live[moves], 1])
    return out


def step(
    current: TokenSeq,
    proposal: TokenSeq,
    t: float,
    h: float,
    cb: Codebook,
    sched: FlowSchedule,
    rng: np.random.Generator,
) -> TokenSeq:
    """One jump-chain update of every position.

    Each position moves with probability 1 - exp(-h * total_rate); on a move
    the destination is drawn from the normalized rates. Positions whose total
    rate is zero (already at the proposal) never move. Only live positions
    are computed; the stream order is unchanged (one (L, 2) uniform block).
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    if not (0.0 < t <= sched.t_max):
        raise ValueError(f"t must lie in (0, t_max], got {t}")
    if len(current) != len(proposal):
        raise ValueError("current and proposal must have equal length")
    if np.any(current.ids >= cb.size) or np.any(proposal.ids >= cb.size):
        raise ValueError("token id out of range for codebook")
    return TokenSeq(_step_ids(current.ids, proposal.ids, t, h, cb, sched, rng))


@dataclass(frozen=True)
class SampleStep:
    """One sampler trace row: time, number of moved positions, and the mean
    metric distance from the state to the proposal after the update."""

    step: int
    t: float
    updates: int
    mean_distance: float


def sample(
    denoiser: Denoiser,
    length: int,
    cb: Codebook,
    sched: FlowSchedule,
    context: object | None = None,
    rng: np.random.Generator | None = None,
    h: float | None = None,
    trace: list[SampleStep] | None = None,
) -> TokenSeq:
    """Generate a token sequence by iterating the jump chain.

    Starts from uniformly random ids and sweeps the uniform time grid
    t_k = k * t_max / steps for k = 1..steps with step size h (defaulting to
    t_max / steps), querying the denoiser once per step. Stream order: the
    initial ids consume one integers() call, then each step consumes one
    (L, 2) uniform block; the denoiser owns any randomness of its own.
    """
    if rng is None:
        raise ValueError("sample requires a seeded generator")
    if length < 1:
        raise ValueError("length must be positive")
    if h is None:
        h = sched.t_max / sched.steps
    if h <= 0:
        raise ValueError("step size must be positive")

    ids = rng.integers(0, cb.size, size=length).astype(np.int64)
    for k in range(1, sched.steps + 1):
        t = sched.t_max * k / sched.steps
        raw = denoiser.predict(TokenSeq(ids), t, context)
        proposal = _proposal_ids(raw, length, cb.size)
        new_ids = _step_ids(ids, proposal, t, h, cb, sched, rng)
        if trace is not None:
            trace.append(
                SampleStep(
                    step=k,
                    t=t,
                    updates=int(np.sum(new_ids != ids)),
                    mean_distance=float(np.mean(cb.distances[new_ids, proposal])),
                )
            )
        ids = new_ids
    return TokenSeq(ids)
