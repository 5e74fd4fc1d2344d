"""The traced benchmark request still reports every per-layer metric.

A traced run swaps module attributes named in ``perfbench/spans.py`` for
timing wrappers; when the package stops calling one of them where the tracer
patches it, requests still pass but the per-layer report loses a metric.
This runs one shortened traced request per workload and checks the report
against ``BENCHMARK.json``. It imports the benchmark's modules and changes
nothing there.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import load  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PER_LAYER = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_request_reports_every_per_layer_metric(name):
    config = load.load_config(WORKLOADS[name], ROOT)
    config = replace(
        config,
        solver=replace(config.solver, steps=min(config.solver.steps, 3)),
        schedule=replace(config.schedule, steps=min(config.schedule.steps, 4)),
    )
    tracer = spans.Tracer()
    with tracer.patched(0):
        record = load.run_request(config, tracer)
    assert record["problems"] == []
    assert tracer.absent == set()
    # build_world calls its helpers through the names the tracer patches
    recorded = {span[3] for span in tracer.spans}
    assert {target[2] for target in spans.TARGETS if target[0] == "anchorsynth.cli"} <= recorded
    metrics, absent = spans.layer_metrics(tracer, [{**record, "index": 0}], 0.0)
    assert absent == []
    assert set(metrics) == PER_LAYER
    # the sampler calls each kernel through ``_kernels`` once per step
    for kernel in ("rate_rows", "weighted_pick"):
        assert metrics[f"kernels.{kernel}.calls"] == (config.schedule.steps, "count")
    # refine calls its step functions through ``refine``'s globals: one
    # activities, route and vjp per step, and one decode per evaluated point
    # (steps + 1) plus the decodes before and after refinement
    steps = config.solver.steps
    for layer in ("refine.activities", "refine.route", "synthworld.vjp"):
        assert metrics[f"{layer}.calls"] == (steps, "count")
    assert metrics["synthworld.decode.calls"] == (steps + 3, "count")
    assert "refine.build_basis" in recorded
    assert ("refine.opt_step" in recorded) == (steps > 0)
