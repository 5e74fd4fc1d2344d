"""Synthetic stand-ins for the pretrained pieces of the pipeline.

Provides deterministic toy motions on a fixed rig, well-separated random
codebooks, a window-mean tokenizer with its paired block decoder, a generic
dense linear decoder (both with exact vector-Jacobian products), oracle-style
test denoisers, and the meter-valued control-error metric. Everything is
seeded explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .motion import Motion, observe
from .scaffold import AnchorSet
from .tokenflow import Codebook, TokenSeq

_KINDS = ("line", "circle", "sinusoid", "random-walk")


@dataclass(frozen=True)
class SynthTask:
    """Recipe for a toy motion."""

    kind: str = "line"
    frames: int = 64
    joints: int = 6
    noise: float = 0.0
    seed: int = 0
    velocity: tuple[float, float, float] = (0.1, 0.0, 0.0)
    radius: float = 1.0
    amplitude: float = 0.3
    period: float = 32.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown motion kind {self.kind!r}")
        if self.frames < 8:
            raise ValueError("synthetic tasks need at least 8 frames")
        if self.joints < 1:
            raise ValueError("synthetic tasks need at least 1 joint")
        if self.noise < 0:
            raise ValueError("noise scale must be nonnegative")


def _rig_offsets(joints: int) -> np.ndarray:
    """Fixed joint offsets from the root; joint 0 is the root itself."""
    offsets = np.zeros((joints, 3))
    for j in range(1, joints):
        side = -1.0 if j % 2 else 1.0
        offsets[j] = (side * 0.15 * ((j + 1) // 2), 0.25 * j, 0.05 * j)
    return offsets


def make_motion(task: SynthTask) -> Motion:
    """Deterministic toy motion: root trajectory by kind plus the fixed rig."""
    t = np.arange(task.frames, dtype=np.float64)
    root = np.zeros((task.frames, 3))
    if task.kind == "line":
        root = t[:, None] * np.asarray(task.velocity, dtype=np.float64)
    elif task.kind == "circle":
        angle = 2.0 * np.pi * t / task.frames
        root[:, 0] = task.radius * np.cos(angle)
        root[:, 2] = task.radius * np.sin(angle)
    elif task.kind == "sinusoid":
        root[:, 1] = task.amplitude * np.sin(2.0 * np.pi * t / task.period)
    else:  # random-walk
        rng = np.random.default_rng(task.seed)
        root = np.cumsum(rng.normal(scale=0.1, size=(task.frames, 3)), axis=0)

    positions = root[:, None, :] + _rig_offsets(task.joints)[None, :, :]
    if task.noise > 0:
        rng = np.random.default_rng(task.seed + 1)
        positions = positions + task.noise * rng.normal(size=positions.shape)
    return Motion(positions)


def make_codebook(
    size: int, dim: int, separation: float, seed: int, max_tries: int = 200
) -> Codebook:
    """Unit-norm codebook with every pairwise cosine at most 1 - separation.

    Rows are rejection-sampled one at a time against the accepted set. When
    the requested separation forces nonpositive cosines, random Gaussian rows
    will essentially never qualify, so an orthonormal set (QR of a random
    matrix) is returned instead, which satisfies any separation up to 1.
    """
    if size < 2:
        raise ValueError("codebook needs at least 2 entries")
    if not (0.0 <= separation <= 2.0):
        raise ValueError("separation must lie in [0, 2]")
    rng = np.random.default_rng(seed)
    bound = 1.0 - separation

    if bound <= 0.0:
        if size > dim:
            raise ValueError(
                f"cannot fit {size} rows with separation {separation} in dim {dim}"
            )
        q, _ = np.linalg.qr(rng.normal(size=(dim, size)))
        return Codebook(q.T[:size].copy())

    rows = np.zeros((size, dim))
    accepted = 0
    while accepted < size:
        for _ in range(max_tries):
            cand = rng.normal(size=dim)
            cand /= np.linalg.norm(cand)
            if accepted == 0 or np.all(rows[:accepted] @ cand <= bound):
                rows[accepted] = cand
                break
        else:
            raise ValueError(
                f"could not reach separation {separation} after {max_tries} tries "
                f"per row (size={size}, dim={dim})"
            )
        accepted += 1
    return Codebook(rows)


@dataclass(frozen=True)
class LinearDecoder:
    """Analytic decoder: motion = reshape(vec(u) @ weight).

    ``weight`` has shape (L * d_u, T * J * 3). The vector-Jacobian product is
    the exact transpose map, so gradient checks against finite differences
    hold to rounding error.
    """

    weight: np.ndarray
    length: int
    token_dim: int
    frames: int
    joints: int

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.float64)
        expect = (self.length * self.token_dim, self.frames * self.joints * 3)
        if w.shape != expect:
            raise ValueError(f"decoder weight shape {w.shape} != {expect}")
        object.__setattr__(self, "weight", w)

    def decode(self, u: np.ndarray) -> Motion:
        flat = np.asarray(u, dtype=np.float64).reshape(-1) @ self.weight
        return Motion(flat.reshape(self.frames, self.joints, 3))

    def vjp(self, u: np.ndarray, cotangent: np.ndarray) -> np.ndarray:
        flat = np.asarray(cotangent, dtype=np.float64).reshape(-1) @ self.weight.T
        return flat.reshape(self.length, self.token_dim)


def make_decoder(
    length: int, token_dim: int, frames: int, joints: int, seed: int
) -> LinearDecoder:
    """Random dense decoder scaled so unit-norm token rows give O(1) outputs."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(length * token_dim, frames * joints * 3)) / np.sqrt(length)
    return LinearDecoder(w, length, token_dim, frames, joints)


@dataclass(frozen=True)
class BlockDecoder:
    """Paired decoder: token n writes ``u[n] @ g`` into every frame of its window.

    It is the ``LinearDecoder`` whose weight holds ``g`` on the blocks
    (token n, frame f) with ``f // ratio == n`` and zeros elsewhere, without
    storing that weight. ``decode`` repeats each token's output row over its
    window and drops the frames past ``frames``; the exact vector-Jacobian
    product zero-pads the cotangent to the token grid, sums each window and
    applies ``g.T``.
    """

    g: np.ndarray
    ratio: int
    frames: int

    def __post_init__(self):
        g = np.asarray(self.g, dtype=np.float64)
        if g.ndim != 2 or g.shape[1] % 3:
            raise ValueError("block map g must be (d_u, J * 3)")
        if self.ratio < 1 or self.frames < 1:
            raise ValueError("ratio and frames must be positive")
        object.__setattr__(self, "g", g)

    def _check_grid(self, length: int) -> None:
        if length * self.ratio < self.frames:
            raise ValueError("token grid must cover the frames")

    def decode(self, u: np.ndarray) -> Motion:
        rows = np.asarray(u, dtype=np.float64) @ self.g
        self._check_grid(rows.shape[0])
        flat = np.repeat(rows, self.ratio, axis=0)[: self.frames]
        return Motion(flat.reshape(self.frames, -1, 3))

    def vjp(self, u: np.ndarray, cotangent: np.ndarray) -> np.ndarray:
        length = np.shape(u)[0]
        self._check_grid(length)
        cot = np.asarray(cotangent, dtype=np.float64).reshape(self.frames, self.g.shape[1])
        pad = length * self.ratio - self.frames
        if pad:
            cot = np.concatenate([cot, np.zeros((pad, cot.shape[1]))])
        return cot.reshape(length, self.ratio, -1).sum(axis=1) @ self.g.T


def make_paired_codec(
    cb: Codebook, length: int, frames: int, joints: int, ratio: int, seed: int
) -> tuple[np.ndarray, BlockDecoder]:
    """Encoder matrix and block decoder that invert each other through pooling.

    The decoder writes each token's embedding through a shared map G into
    every frame of that token's window; the encoder is the pseudo-inverse of
    G applied to window means, so tokenize(decode(embeddings)) recovers the
    ids on a well-separated codebook. Requires d_e <= J * 3.
    """
    if frames > length * ratio:
        raise ValueError("token grid must cover the frames")
    if cb.dim > joints * 3:
        raise ValueError("paired codec needs embedding dim <= joints * 3")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(cb.dim, joints * 3))
    return np.linalg.pinv(g), BlockDecoder(g, ratio, frames)


def tokenize(motion: Motion, cb: Codebook, ratio: int, w_enc: np.ndarray) -> TokenSeq:
    """Window-mean the frames, project to embedding space, snap to nearest row.

    The final partial window pads by repeating the last frame. Ties between
    codebook rows resolve to the lower id.
    """
    if ratio < 1:
        raise ValueError("ratio must be positive")
    flat = motion.positions.reshape(motion.frames, -1)
    w_enc = np.asarray(w_enc, dtype=np.float64)
    if w_enc.shape != (flat.shape[1], cb.dim):
        raise ValueError(f"encoder must map {flat.shape[1]} -> {cb.dim}")
    length = -(-motion.frames // ratio)
    pad = length * ratio - motion.frames
    if pad:
        flat = np.concatenate([flat, np.repeat(flat[-1:], pad, axis=0)])
    pooled = flat.reshape(length, ratio, -1).mean(axis=1) @ w_enc
    d2 = np.sum((pooled[:, None, :] - cb.embeddings[None, :, :]) ** 2, axis=2)
    return TokenSeq(np.argmin(d2, axis=1).astype(np.int64))


def control_error(motion: Motion, anchors: AnchorSet) -> float:
    """Mean unsquared control-space distance over the anchors, meters.

    Empty anchor sets return 0 by convention; callers reporting this metric
    should surface the anchor count alongside it.
    """
    anchors.validate_for(motion)
    if not len(anchors):
        return 0.0
    obs = observe(motion, anchors.family)
    return float(np.mean(np.linalg.norm(obs[anchors.frames] - anchors.targets, axis=1)))


class OracleDenoiser:
    """Test denoiser that knows the clean sequence.

    Each query returns the clean ids with every position independently
    replaced by a uniformly random id with probability ``confusion`` (the
    replacement may coincide with the clean id). Seeded and reproducible.
    """

    def __init__(self, clean: TokenSeq, vocab: int, confusion: float = 0.0, seed: int = 0):
        if not (0.0 <= confusion < 1.0):
            raise ValueError("confusion must lie in [0, 1)")
        if np.any(clean.ids >= vocab):
            raise ValueError("clean id out of range")
        self._clean = clean.ids.copy()
        self._vocab = vocab
        self._confusion = confusion
        self._rng = np.random.default_rng(seed)

    def predict(self, tokens: TokenSeq, t: float, context: object | None = None) -> np.ndarray:
        ids = self._clean.copy()
        if self._confusion > 0.0:
            flip = self._rng.random(ids.shape[0]) < self._confusion
            if np.any(flip):
                ids[flip] = self._rng.integers(0, self._vocab, size=int(flip.sum()))
        return ids
