"""Serialization for arrays, motions, and anchor sets.

Arrays (motions, codebooks, parameter matrices) share one container with two
encodings, chosen by file suffix:

* ``.json``: ``{"shape": [...], "data": [...]}`` with row-major values.
  Floats are written with repr precision, so a round-trip is bit-exact.
* anything else: binary, little-endian: the 6-byte magic ``b"ARRC1\\n"``,
  a uint32 rank, rank uint64 dimensions, then float64 values in C order.

Loading checks the declared shape against the payload before reading it; a
malformed container raises ``ValueError`` naming the file and the defect.

Anchor sets exchange as JSON documents::

    {"family": "root3d" | "planar_root" | "body_point",
     "joint": int?,            # body_point only
     "anchors": [{"frame": int, "target": [floats]}]}

The family's residual tolerance is a solver-side setting and is not part of
the document; it is supplied when loading.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .motion import BODY_POINT, ControlFamily, Motion
from .scaffold import Anchor, AnchorSet

_MAGIC = b"ARRC1\n"


def save_array(path: str | Path, array: np.ndarray) -> None:
    path = Path(path)
    array = np.asarray(array, dtype=np.float64)
    if path.suffix == ".json":
        doc = {"shape": list(array.shape), "data": array.reshape(-1).tolist()}
        path.write_text(json.dumps(doc))
        return
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", array.ndim))
        fh.write(struct.pack(f"<{array.ndim}Q", *array.shape))
        fh.write(array.astype("<f8").tobytes(order="C"))


def load_array(path: str | Path) -> np.ndarray:
    """Read an array container; a malformed file raises ``ValueError`` naming it."""
    path = Path(path)
    if path.suffix == ".json":
        return _load_json_array(path)
    raw = path.read_bytes()
    if raw[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path} is not an array container")
    offset = len(_MAGIC)
    if len(raw) < offset + 4:
        raise ValueError(f"{path}: truncated header, no rank")
    (ndim,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    if len(raw) < offset + 8 * ndim:
        raise ValueError(
            f"{path}: truncated dims block, rank {ndim} needs {8 * ndim} bytes, {len(raw) - offset} left"
        )
    shape = struct.unpack_from(f"<{ndim}Q", raw, offset)
    offset += 8 * ndim
    payload, needed = len(raw) - offset, 8 * math.prod(shape)
    if payload != needed:
        raise ValueError(f"{path}: shape {list(shape)} needs {needed} payload bytes, found {payload}")
    data = np.frombuffer(raw, dtype="<f8", offset=offset)
    return data.reshape(shape).astype(np.float64)


def _load_json_array(path: Path) -> np.ndarray:
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"shape", "data"}:
        raise ValueError(f"{path}: an array container is an object with keys 'shape' and 'data'")
    shape = doc["shape"]
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"{path}: shape must be a list of nonnegative integers, got {shape!r}")
    try:
        data = np.asarray(doc["data"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: data must be a list of numbers: {exc}") from exc
    if data.ndim != 1:
        raise ValueError(f"{path}: data must be a flat list of numbers")
    if data.size != math.prod(shape):
        raise ValueError(f"{path}: shape {shape} needs {math.prod(shape)} values, found {data.size}")
    return data.reshape(shape)


def save_motion(path: str | Path, motion: Motion) -> None:
    save_array(path, motion.positions)


def load_motion(path: str | Path) -> Motion:
    return Motion(load_array(path))


def save_anchors(path: str | Path, anchors: AnchorSet) -> None:
    doc: dict = {"family": anchors.family.variant}
    if anchors.family.variant == BODY_POINT:
        doc["joint"] = anchors.family.joint
    doc["anchors"] = [
        {"frame": a.frame, "target": a.target.tolist()} for a in anchors.anchors
    ]
    Path(path).write_text(json.dumps(doc))


def load_anchors(path: str | Path, tolerance: float = 0.05) -> AnchorSet:
    doc = json.loads(Path(path).read_text())
    variant = doc["family"]
    joint = doc.get("joint")
    family = ControlFamily(variant, tolerance, joint if variant == BODY_POINT else None)
    anchors = tuple(
        Anchor(entry["frame"], np.asarray(entry["target"], dtype=np.float64))
        for entry in doc["anchors"]
    )
    return AnchorSet(family, anchors)
