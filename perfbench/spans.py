"""Spans recorded around the calls into each anchorsynth module.

The traced run swaps module attributes for timing wrappers while one request
runs and restores them afterwards; the untraced run never touches them. The
decoder and the denoiser are passed in as timing proxies, because ``sample``
and ``refine`` take them as arguments. Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _rate_rows_bytes(args, result) -> int:
    """Bytes ``rate_rows`` must read and write by its definition."""
    current, proposal, distances, corruption = args
    rates, totals = result
    n, v = corruption.shape
    gathered = (n * v + n) * distances.itemsize  # d(i, p_n) for every i, and d(x_n, p_n)
    return current.nbytes + proposal.nbytes + corruption.nbytes + gathered + rates.nbytes + totals.nbytes


def _weighted_pick_bytes(args, result) -> int:
    """Bytes ``weighted_pick`` must read and write by its definition."""
    weights, uniforms = args
    return weights.nbytes + uniforms.nbytes + np.asarray(result).nbytes


# (module, attribute, span name, byte model). Modules are resolved with
# importlib: the package re-exports the function ``refine`` under the name of
# the module. The world-build helpers are patched where ``cli`` imported them.
TARGETS = (
    ("anchorsynth.refine", "activities", "refine.activities", None),
    ("anchorsynth.refine", "route", "refine.route", None),
    ("anchorsynth.refine", "opt_step", "refine.opt_step", None),
    ("anchorsynth.refine", "build_basis", "refine.build_basis", None),
    ("anchorsynth._kernels", "rate_rows", "kernels.rate_rows", _rate_rows_bytes),
    ("anchorsynth._kernels", "weighted_pick", "kernels.weighted_pick", _weighted_pick_bytes),
    ("anchorsynth.cli", "make_codebook", "synthworld.make_codebook", None),
    ("anchorsynth.cli", "make_paired_codec", "synthworld.make_paired_codec", None),
    ("anchorsynth.cli", "tokenize", "synthworld.tokenize", None),
    ("anchorsynth.cli", "build_features", "scaffold.build_features", None),
    ("anchorsynth.cli", "encode_memory", "attention.encode_memory", None),
)

# spans reported as median seconds per request, and as calls per request
TIMED = (
    "synthworld.decode", "synthworld.vjp", "synthworld.make_paired_codec",
    "synthworld.make_codebook", "synthworld.tokenize", "scaffold.build_features",
    "attention.encode_memory", "refine.refine", "refine.activities", "refine.route",
    "refine.opt_step", "refine.build_basis", "tokenflow.sample", "synthworld.predict",
    "kernels.rate_rows", "kernels.weighted_pick",
)
COUNTED = (
    "synthworld.decode", "synthworld.vjp", "refine.activities", "refine.route",
    "synthworld.predict", "kernels.rate_rows", "kernels.weighted_pick",
)
# span name -> name of its self-time metric
SELF_TIMED = {
    "cli.build_world": "cli.build_world.self.s",
    "refine.refine": "refine.self.s",
    "tokenflow.sample": "tokenflow.sample.self.s",
}


class Tracer:
    """Records (request, span id, parent id, name, start, end) tuples."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.bytes: dict[int, int] = defaultdict(int)
        self.absent: set[str] = set()
        self.request = -1
        self._stack: list[int] = []
        self._next = 0

    def call(self, name, fn, *args, _bytes_of=None, **kwargs):
        span, self._next = self._next, self._next + 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((self.request, span, parent, name, start, end))
        if _bytes_of is not None:
            self.bytes[self.request] += _bytes_of(args, result)
        return result

    def wrap(self, name, fn, bytes_of=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, _bytes_of=bytes_of, **kwargs)

        return traced

    @contextmanager
    def patched(self, request: int):
        """Swap every wrap target for a traced wrapper while ``request`` runs."""
        self.request = request
        saved = []
        try:
            for module_name, attr, name, bytes_of in TARGETS:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.absent.add(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.add(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self.wrap(name, original, bytes_of))
                saved.append((module, attr, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_totals(self) -> dict[int, dict[str, float]]:
        """Per request: total seconds, call count and self seconds per span name."""
        children = defaultdict(float)
        for request, _, parent, _, start, end in self.spans:
            if parent >= 0:
                children[(request, parent)] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for request, span, _, name, start, end in self.spans:
            totals = out[request]
            totals[f"{name}.s"] += end - start
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self.s"] += end - start - children[(request, span)]
        return out

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("request,span,parent,name,start_s,end_s\n")
            for request, span, parent, name, start, end in self.spans:
                fh.write(f"{request},{span},{parent},{name},{start!r},{end!r}\n")


class TimedDecoder:
    """Decoder proxy that records a span per ``decode`` and ``vjp``."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def decode(self, u):
        return self.tracer.call("synthworld.decode", self.inner.decode, u)

    def vjp(self, u, cotangent):
        return self.tracer.call("synthworld.vjp", self.inner.vjp, u, cotangent)


class TimedDenoiser:
    """Denoiser proxy that records a span per ``predict``."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def predict(self, tokens, t, context=None):
        return self.tracer.call("synthworld.predict", self.inner.predict, tokens, t, context)


def layer_metrics(tracer: Tracer, requests: list[dict], overhead: float) -> tuple[dict, list[str]]:
    """Per-layer metrics, each the median over requests, and the absent names.

    ``requests`` holds, per traced request, the request index and the facts
    the spans do not carry: refine steps, sampler steps, moved positions and
    the decoder size.
    """
    totals = tracer.layer_totals()

    def median(key):
        return statistics.median(totals[r["index"]].get(key, 0.0) for r in requests)

    kernel_targets = {"kernels.rate_rows", "kernels.weighted_pick"}
    absent_spans = {
        name for module, attr, name, _ in TARGETS if f"{module}.{attr}" in tracer.absent
    }
    metrics = {}
    for name in TIMED:
        if name not in absent_spans:
            metrics[f"{name}.s"] = (median(f"{name}.s"), "s")
    for name in COUNTED:
        if name not in absent_spans:
            metrics[f"{name}.calls"] = (median(f"{name}.calls"), "count")
    for name, metric in SELF_TIMED.items():
        metrics[metric] = (median(f"{name}.self.s"), "s")
    metrics["synthworld.decoder_mb"] = (requests[0]["decoder_mb"], "MB")
    metrics["refine.steps_per_s"] = (
        statistics.median(
            r["refine_steps"] / totals[r["index"]]["refine.refine.s"] for r in requests
        ),
        "1/s",
    )
    metrics["tokenflow.steps"] = (statistics.median(r["sampler_steps"] for r in requests), "count")
    metrics["tokenflow.move_ratio"] = (statistics.median(r["move_ratio"] for r in requests), "1")
    if not kernel_targets & absent_spans:
        metrics["kernels.bytes_computed"] = (
            statistics.median(tracer.bytes[r["index"]] for r in requests),
            "B",
        )
    metrics["trace.overhead"] = (overhead, "1")
    return metrics, sorted(tracer.absent)
