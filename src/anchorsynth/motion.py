"""Motion arrays and sparse-control observation operators.

A motion is a (frames, joints, 3) array of joint positions in meters.
A control family picks which coordinates of the motion are observable:
the full 3D root trajectory, the horizontal (x, z) root path, or a single
body point. All downstream conditioning and refinement losses are stated
in the observed subspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROOT_JOINT = 0

ROOT3D = "root3d"
PLANAR_ROOT = "planar_root"
BODY_POINT = "body_point"

_VARIANTS = (ROOT3D, PLANAR_ROOT, BODY_POINT)

# horizontal plane is (x, z); y is up
_PLANAR_AXES = (0, 2)


@dataclass(frozen=True)
class Motion:
    """Frame-indexed joint positions, shape (frames, joints, 3), meters."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim != 3 or pos.shape[2] != 3:
            raise ValueError(f"positions must have shape (T, J, 3), got {pos.shape}")
        if pos.shape[0] < 2:
            raise ValueError("motion needs at least 2 frames")
        if pos.shape[1] < 1:
            raise ValueError("motion needs at least 1 joint")
        if not np.isfinite(pos).all():
            raise ValueError("motion positions must be finite")
        object.__setattr__(self, "positions", pos)

    @property
    def frames(self) -> int:
        return self.positions.shape[0]

    @property
    def joints(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True)
class ControlFamily:
    """A sparse-control variant: which subspace is observed and how tightly.

    ``tolerance`` is the residual tolerance (meters) used to convert interval
    endpoint errors into correction activities.
    """

    variant: str
    tolerance: float = 0.05
    joint: int | None = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown control family {self.variant!r}")
        if not (self.tolerance > 0):
            raise ValueError("tolerance must be positive")
        if self.variant == BODY_POINT:
            if self.joint is None or self.joint < 0:
                raise ValueError("body_point control needs a nonnegative joint index")
        elif self.joint is not None:
            raise ValueError(f"{self.variant} control does not take a joint index")

    @classmethod
    def root3d(cls, tolerance: float = 0.05) -> "ControlFamily":
        return cls(ROOT3D, tolerance)

    @classmethod
    def planar_root(cls, tolerance: float = 0.05) -> "ControlFamily":
        return cls(PLANAR_ROOT, tolerance)

    @classmethod
    def body_point(cls, joint: int, tolerance: float = 0.05) -> "ControlFamily":
        return cls(BODY_POINT, tolerance, joint)

    @property
    def control_dim(self) -> int:
        return 2 if self.variant == PLANAR_ROOT else 3

    def validate_for(self, motion: Motion) -> None:
        if self.variant == BODY_POINT and self.joint >= motion.joints:
            raise ValueError(
                f"body_point joint {self.joint} out of range for motion with "
                f"{motion.joints} joints"
            )


def observe(motion: Motion, family: ControlFamily) -> np.ndarray:
    """Project a motion to its controlled coordinates, shape (T, d_f)."""
    family.validate_for(motion)
    pos = motion.positions
    if family.variant == ROOT3D:
        return pos[:, ROOT_JOINT, :].copy()
    if family.variant == PLANAR_ROOT:
        return pos[:, ROOT_JOINT, :][:, _PLANAR_AXES].copy()
    return pos[:, family.joint, :].copy()


def observation_adjoint(grad_obs: np.ndarray, family: ControlFamily, joints: int) -> np.ndarray:
    """Adjoint of :func:`observe`: scatter a (T, d_f) cotangent into (T, J, 3)."""
    grad_obs = np.asarray(grad_obs, dtype=np.float64)
    if grad_obs.ndim != 2 or grad_obs.shape[1] != family.control_dim:
        raise ValueError(f"cotangent must have shape (T, {family.control_dim})")
    out = np.zeros((grad_obs.shape[0], joints, 3))
    if family.variant == ROOT3D:
        out[:, ROOT_JOINT, :] = grad_obs
    elif family.variant == PLANAR_ROOT:
        out[:, ROOT_JOINT, _PLANAR_AXES[0]] = grad_obs[:, 0]
        out[:, ROOT_JOINT, _PLANAR_AXES[1]] = grad_obs[:, 1]
    else:
        out[:, family.joint, :] = grad_obs
    return out
