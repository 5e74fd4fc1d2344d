"""Behaviour fingerprint: the CLI's sample and refine results on a fixed grid.

Every point of the grid (3 control families x 4 task kinds x seeds 0-2, the
standard config at preset rs200) runs ``run_sample`` and ``run_refine`` in
process. The recorded values are compared with ``fingerprint.json``: token
ids exactly, floats to a relative tolerance of 1e-9 with an absolute floor
of 1e-12. Bytes are not compared, because BLAS may round the small matmuls
differently on another CPU.

A change that alters behaviour on purpose regenerates the fixture with::

    PYTHONPATH=src python tests/test_fingerprint.py --write
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from anchorsynth.cli import PRESETS, load_config, run_refine, run_sample
from anchorsynth.containers import load_motion
from anchorsynth.motion import ControlFamily

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = Path(__file__).resolve().parent / "fingerprint.json"
FAMILIES = (("root3d", None), ("planar_root", None), ("body_point", 3))
KINDS = ("line", "circle", "sinusoid", "random-walk")
SEEDS = (0, 1, 2)
REL_TOL = 1e-9
ABS_TOL = 1e-12


def motion_stats(path: Path) -> list[float]:
    x = load_motion(path).positions
    return [float(x.sum()), float((x * x).sum()), float(np.abs(x).max())]


def trace_rows(path: Path) -> list[list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [[float(v) for v in rows[i]] for i in (0, len(rows) // 2, -1)]


def fingerprint(work: Path) -> dict:
    """Run the grid with artifacts under ``work``; returns one record per point."""
    base = load_config(ROOT / "configs" / "standard.json")
    base = replace(base, solver=replace(base.solver, steps=PRESETS["rs200"]))
    records = {}
    for variant, joint in FAMILIES:
        for kind in KINDS:
            for seed in SEEDS:
                config = replace(
                    base,
                    seed=seed,
                    task=replace(base.task, kind=kind),
                    family=ControlFamily(variant, base.family.tolerance, joint),
                )
                key = f"{variant}/{kind}/{seed}"
                sample_dir, refine_dir = work / key / "sample", work / key / "refine"
                sampled = run_sample(config, sample_dir)
                refined = run_refine(config, refine_dir)
                ids = json.loads((sample_dir / "tokens.json").read_text())["ids"]
                records[key] = {
                    "ids": ids,
                    "token_match": sampled["token_match"],
                    "control_error_before": refined["control_error_before"],
                    "control_error_after": refined["control_error_after"],
                    "anchor_loss_before": refined["anchor_loss_before"],
                    "trace_rows": trace_rows(refine_dir / "trace.csv"),
                    "sample_motion": motion_stats(sample_dir / "motion.bin"),
                    "refined_motion": motion_stats(refine_dir / "motion_refined.bin"),
                }
    return records


def assert_close(got, want, where: str) -> None:
    if isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    else:
        assert abs(got - want) <= max(REL_TOL * abs(want), ABS_TOL), f"{where}: {got!r} != {want!r}"


def test_behaviour_matches_fingerprint(tmp_path):
    expected = json.loads(FIXTURE.read_text())
    actual = fingerprint(tmp_path)
    assert sorted(actual) == sorted(expected)
    for key, want in expected.items():
        got = actual[key]
        assert got["ids"] == want["ids"], f"{key}: token ids differ"
        for field in want.keys() - {"ids"}:
            assert_close(got[field], want[field], f"{key} {field}")


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        records = fingerprint(Path(work))
    lines = (f" {json.dumps(key)}: {json.dumps(records[key], sort_keys=True)}" for key in sorted(records))
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(records)} records to {FIXTURE}")
