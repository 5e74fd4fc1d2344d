import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from anchorsynth.containers import (
    load_anchors,
    load_array,
    load_motion,
    save_anchors,
    save_array,
    save_motion,
)
from anchorsynth.motion import ControlFamily, Motion
from anchorsynth.scaffold import Anchor, AnchorSet


def test_json_array_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(7, 3, 3)) * 1e-7  # awkward magnitudes
    path = tmp_path / "arr.json"
    save_array(path, arr)
    back = load_array(path)
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)  # repr floats round-trip bit-exactly


def test_binary_array_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.normal(size=(4, 5))
    path = tmp_path / "arr.bin"
    save_array(path, arr)
    assert np.array_equal(load_array(path), arr)


def test_binary_rejects_foreign_file(tmp_path):
    path = tmp_path / "not_an_array.bin"
    path.write_bytes(b"hello world")
    with pytest.raises(ValueError, match="container"):
        load_array(path)


@settings(max_examples=50, deadline=None)
@given(
    arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)),
    st.sampled_from(["arr.json", "arr.bin"]),
)
def test_array_round_trip_property(array, name):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / name
        save_array(path, array)
        back = load_array(path)
    assert back.shape == array.shape
    assert np.array_equal(back, array, equal_nan=True)


MAGIC = b"ARRC1\n"
GOOD_BIN = MAGIC + struct.pack("<I2Q", 2, 3, 4) + np.arange(12.0).astype("<f8").tobytes()


@pytest.mark.parametrize(
    "name, content, defect",
    [
        ("header.bin", MAGIC + b"\x02\x00", "truncated header"),
        ("dims.bin", MAGIC + struct.pack("<IQ", 2, 3), "truncated dims block"),
        ("rank.bin", MAGIC + struct.pack("<I", 10**9), "truncated dims block"),
        ("short.bin", GOOD_BIN[:-8], "needs 96 payload bytes, found 88"),
        ("extra.bin", GOOD_BIN + bytes(8), "needs 96 payload bytes, found 104"),
        ("ragged.bin", GOOD_BIN + bytes(3), "needs 96 payload bytes, found 99"),
        ("noshape.json", json.dumps({"data": [1.0, 2.0]}), "keys 'shape' and 'data'"),
        ("list.json", json.dumps([1.0, 2.0]), "keys 'shape' and 'data'"),
        ("broken.json", "{", "not valid JSON"),
        ("badshape.json", json.dumps({"shape": [2.5], "data": [1.0]}), "nonnegative integers"),
        ("strings.json", json.dumps({"shape": [1], "data": ["x"]}), "list of numbers"),
        ("nested.json", json.dumps({"shape": [2], "data": [[1.0], [2.0]]}), "flat list"),
        ("mismatch.json", json.dumps({"shape": [3, 4], "data": [1.0, 2.0]}), "needs 12 values, found 2"),
    ],
)
def test_malformed_container_fails_at_the_boundary(tmp_path, name, content, defect):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    with pytest.raises(ValueError, match=defect) as info:
        load_array(path)
    assert str(path) in str(info.value)


GOOD_ANCHOR = {"frame": 3, "target": [0.25, -1.5, 3.0]}
DOC_KEYS = "keys 'family', 'anchors' and optionally 'joint'"


def _root3d(*anchors):
    return {"family": "root3d", "anchors": list(anchors)}


@pytest.mark.parametrize(
    "name, doc, defect",
    [
        ("broken", "{", "not valid JSON"),
        ("list", [GOOD_ANCHOR], DOC_KEYS),
        ("nofamily", {"anchors": [GOOD_ANCHOR]}, DOC_KEYS),
        ("noanchors", {"family": "root3d"}, DOC_KEYS),
        ("extrakey", {**_root3d(GOOD_ANCHOR), "tolerance": 0.1}, DOC_KEYS),
        ("anchorsobject", {"family": "root3d", "anchors": GOOD_ANCHOR}, "anchors must be a list"),
        ("entrynumber", _root3d(3), r"anchors\[0\] must be an object"),
        ("noframe", _root3d({"target": [0, 0, 0]}), "keys 'frame' and 'target'"),
        ("notarget", _root3d({"frame": 3}), "keys 'frame' and 'target'"),
        ("extraentrykey", _root3d({**GOOD_ANCHOR, "weight": 2.0}), "keys 'frame' and 'target'"),
        ("floatframe", _root3d({"frame": 3.5, "target": [0, 0, 0]}), "frame must be an integer"),
        ("boolframe", _root3d({"frame": True, "target": [0, 0, 0]}), "frame must be an integer"),
        ("strtarget", _root3d(GOOD_ANCHOR, {"frame": 5, "target": ["x", 0, 0]}), "target must be a list"),
        ("scalartarget", _root3d({"frame": 3, "target": 1.0}), "target must be a list of numbers"),
        ("shorttarget", _root3d({"frame": 3, "target": [0, 0]}), "control dim"),
        ("negframe", _root3d({"frame": -1, "target": [0, 0, 0]}), "nonnegative"),
        ("repeated", _root3d(GOOD_ANCHOR, GOOD_ANCHOR), "duplicate anchor frames"),
        ("family", {"family": "circle", "anchors": []}, "unknown control family"),
        ("joint", {"family": "body_point", "joint": "x", "anchors": []}, "joint must be an integer"),
        ("rootjoint", {**_root3d(), "joint": 2}, "does not take a joint index"),
    ],
)
def test_malformed_anchor_document_fails_at_the_boundary(tmp_path, name, doc, defect):
    path = tmp_path / f"{name}.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(ValueError, match=defect) as info:
        load_anchors(path)
    assert str(path) in str(info.value)


def test_motion_round_trip_both_formats(tmp_path):
    motion = Motion(np.random.default_rng(2).normal(size=(6, 2, 3)))
    for name in ("m.json", "m.bin"):
        save_motion(tmp_path / name, motion)
        back = load_motion(tmp_path / name)
        assert np.abs(back.positions - motion.positions).max() <= 1e-12


def test_anchor_round_trip_root3d(tmp_path):
    family = ControlFamily.root3d(tolerance=0.07)
    anchors = AnchorSet(
        family,
        (Anchor(3, np.array([0.25, -1.5, 3.0])), Anchor(11, np.array([1.0, 0.0, 0.125]))),
    )
    path = tmp_path / "anchors.json"
    save_anchors(path, anchors)
    back = load_anchors(path, tolerance=0.07)
    assert back.family == family
    assert [a.frame for a in back.anchors] == [3, 11]
    np.testing.assert_array_equal(back.targets, anchors.targets)


def test_anchor_round_trip_body_point(tmp_path):
    family = ControlFamily.body_point(4)
    anchors = AnchorSet(family, (Anchor(0, np.array([1.0, 2.0, 3.0])),))
    path = tmp_path / "anchors.json"
    save_anchors(path, anchors)
    back = load_anchors(path)
    assert back.family.variant == "body_point"
    assert back.family.joint == 4
    np.testing.assert_array_equal(back.targets, anchors.targets)


def test_codebook_loads_from_array_container(tmp_path):
    from anchorsynth.synthworld import make_codebook
    from anchorsynth.tokenflow import Codebook

    cb = make_codebook(12, 6, 0.3, seed=3)
    for name in ("cb.json", "cb.bin"):
        save_array(tmp_path / name, cb.embeddings)
        back = Codebook(load_array(tmp_path / name))
        assert np.array_equal(back.embeddings, cb.embeddings)
        assert np.array_equal(back.distances, cb.distances)


def test_kv_projection_matrices_load_from_container(tmp_path):
    from anchorsynth.attention import KvProjection

    rng = np.random.default_rng(4)
    mats = {
        "proj.bin": rng.normal(size=(8, 2)),
        "key.bin": rng.normal(size=(2, 8)),
        "value.bin": rng.normal(size=(2, 8)),
    }
    for name, mat in mats.items():
        save_array(tmp_path / name, mat)
    params = KvProjection(
        load_array(tmp_path / "proj.bin"),
        load_array(tmp_path / "key.bin"),
        load_array(tmp_path / "value.bin"),
    )
    assert params.rank == 2
    assert np.array_equal(params.proj, mats["proj.bin"])


def test_anchor_document_schema(tmp_path):
    family = ControlFamily.planar_root()
    anchors = AnchorSet(family, (Anchor(5, np.array([0.5, -0.5])),))
    path = tmp_path / "anchors.json"
    save_anchors(path, anchors)
    doc = json.loads(path.read_text())
    assert set(doc) == {"family", "anchors"}
    assert doc["family"] == "planar_root"
    assert doc["anchors"] == [{"frame": 5, "target": [0.5, -0.5]}]
