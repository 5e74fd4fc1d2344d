"""Workloads, the request path, the output gate and the closed loop.

Imported only after ``run.py`` has pinned the BLAS threads and put the
checkout's ``src`` first on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import statistics
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import TimedDecoder, TimedDenoiser, Tracer, layer_metrics
from workloads import Workload

cli = importlib.import_module("anchorsynth.cli")
refine_mod = importlib.import_module("anchorsynth.refine")
scaffold = importlib.import_module("anchorsynth.scaffold")
synthworld = importlib.import_module("anchorsynth.synthworld")
tokenflow = importlib.import_module("anchorsynth.tokenflow")

TAIL_BEYOND = 10  # requests that must lie beyond the reported tail percentile
TRACED_MIN_REQUESTS = 5


def load_config(workload: Workload, root: Path):
    doc = json.loads((root / workload.base).read_text()) if workload.base else {}
    for section, values in workload.overrides.items():
        doc.setdefault(section, {}).update(values)
    return cli.parse_config(doc)


def request_seed(bench_seed: int, index: int) -> int:
    return int(np.random.SeedSequence(bench_seed, spawn_key=(index,)).generate_state(1)[0])


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def run_request(config, tracer: Tracer | None = None) -> dict:
    """One seed through the calls ``anchorsynth refine`` makes, then the gate."""
    call = tracer.call if tracer is not None else _direct
    started = perf_counter()
    world = call("cli.build_world", cli.build_world, config)
    built = perf_counter()
    decoder, denoiser, sampler_trace = world.decoder, world.denoiser, None
    if tracer is not None:
        decoder, denoiser = TimedDecoder(decoder, tracer), TimedDenoiser(denoiser, tracer)
        sampler_trace = []
    tokens = call(
        "tokenflow.sample",
        tokenflow.sample,
        denoiser,
        config.tokens.length,
        world.codebook,
        config.schedule,
        context=world.memory,
        rng=world.sampler_rng,
        trace=sampler_trace,
    )
    soft = refine_mod.soft_init(tokens, world.codebook)
    before = synthworld.control_error(decoder.decode(soft.u), world.anchors)
    intervals = scaffold.build_intervals(world.anchors, world.gt.frames)
    refined_soft, _ = call(
        "refine.refine",
        refine_mod.refine,
        soft,
        decoder,
        world.anchors,
        intervals,
        config.solver,
        config.tokens.frames_per_token,
    )
    refined = decoder.decode(refined_soft.u)
    after = synthworld.control_error(refined, world.anchors)
    finished = perf_counter()

    problems = []
    if not np.all(np.isfinite(refined.positions)):
        problems.append("refined motion is not finite")
    if not np.isfinite(after):
        problems.append(f"final control error is {after}")
    elif config.solver.steps > 0 and not after < before:
        problems.append(f"control error did not fall: {before!r} -> {after!r}")
    if np.any((tokens.ids < 0) | (tokens.ids >= world.codebook.size)):
        problems.append("token id outside the codebook")

    out = {
        "seed": config.seed,
        "build_s": built - started,
        "sample_s": finished - built,
        "error_before": before,
        "error_after": after,
        "token_match": float(np.mean(tokens.ids == world.clean.ids)),
        "ids": tokens.ids.tolist(),
        "motion_sha256": hashlib.sha256(np.ascontiguousarray(refined.positions).tobytes()).hexdigest(),
        "problems": problems,
    }
    if tracer is not None:
        moved = sum(row.updates for row in sampler_trace)
        out.update(
            refine_steps=config.solver.steps,
            sampler_steps=len(sampler_trace),
            move_ratio=moved / (len(tokens) * len(sampler_trace)),
            decoder_mb=sum(
                v.nbytes for v in vars(world.decoder).values() if isinstance(v, np.ndarray)
            )
            / 1e6,
        )
    return out


def _attempt(index: int, seed: int, fn) -> dict:
    """Run one request; an exception becomes a failed record, never a stop."""
    try:
        record = fn()
    except Exception:  # noqa: BLE001 - every request is attempted and counted
        record = {"seed": seed, "problems": [traceback.format_exc(limit=3)]}
    record["index"] = index
    return record


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND values beyond it: (value, percentile)."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def closed_loop(workload: Workload, config, bench_seed: int, seconds: float, probe, probes: int) -> dict:
    """One client: each request starts when the previous one has finished.

    ``probe()`` times one import in a fresh interpreter. It runs ``probes``
    times, spread evenly over the loop so that it samples the same period of
    the machine as the requests, and its time is kept off the loop's clock.
    """
    minimum = max(workload.quality_requests, TAIL_BEYOND + 1)
    records, imports = [], []
    clock = 0.0
    while clock < seconds or len(records) < minimum:
        if len(imports) < probes and clock >= len(imports) * seconds / probes:
            imports.append(probe())
        started = perf_counter()
        index, seed = len(records), request_seed(bench_seed, len(records))
        records.append(_attempt(index, seed, lambda: run_request(replace(config, seed=seed))))
        clock += perf_counter() - started
    while len(imports) < probes:
        imports.append(probe())

    ok = [r for r in records if not r["problems"]]
    quality = [r for r in records[: workload.quality_requests] if not r["problems"]]
    metrics, percentile = {}, None
    if ok and quality:
        spans = [r["sample_s"] for r in ok]
        metrics["sample_s.p50"] = (statistics.median(spans), "s")
        if len(spans) > TAIL_BEYOND:
            value, percentile = tail(spans)
            metrics["sample_s.tail"] = (value, "s")
        metrics["samples_per_s"] = (len(ok) / clock, "1/s")
        metrics["setup_s"] = (statistics.median(r["build_s"] for r in ok), "s")
        # a median: across seeds the error is heavy-tailed (a few requests
        # converge far worse), which swings a mean of this many by ~20%
        metrics["control_error_m"] = (statistics.median(r["error_after"] for r in quality), "m")
        metrics["token_match"] = (statistics.fmean(r["token_match"] for r in quality), "1")
        metrics["import_s"] = (statistics.median(imports), "s")
    return {"records": records, "metrics": metrics, "imports": imports, "tail_percentile": percentile}


def traced_loop(config, bench_seed: int, seconds: float) -> dict:
    """Each request runs untraced and traced; both outputs must agree."""
    tracer = Tracer()
    records, traced = [], []
    plain_s, traced_s = [], []
    started = perf_counter()
    while perf_counter() - started < seconds or len(records) < TRACED_MIN_REQUESTS:
        index, seed = len(records), request_seed(bench_seed, len(records))
        cfg = replace(config, seed=seed)

        def run_traced():
            with tracer.patched(index):
                return run_request(cfg, tracer)

        sides = {"plain": lambda: run_request(cfg), "traced": run_traced}
        # alternate which side runs first, so neither always finds warm caches
        order = ("plain", "traced") if index % 2 == 0 else ("traced", "plain")
        runs = {side: _attempt(index, seed, sides[side]) for side in order}
        plain, with_spans = runs["plain"], runs["traced"]
        problems = plain["problems"] + with_spans["problems"]
        if not problems and (
            plain["ids"] != with_spans["ids"] or plain["motion_sha256"] != with_spans["motion_sha256"]
        ):
            problems.append("traced outputs differ from untraced outputs")
        records.append({"seed": seed, "index": index, "problems": problems})
        if not problems:
            traced.append(with_spans)
            plain_s.append(plain["sample_s"])
            traced_s.append(with_spans["sample_s"])

    metrics, absent = {}, []
    if traced:
        overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
        metrics, absent = layer_metrics(tracer, traced, overhead)
    return {"records": records, "metrics": metrics, "absent": absent, "tracer": tracer}
