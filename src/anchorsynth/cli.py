"""Command-line pipeline runner.

Subcommands:

* ``sample``: generate tokens with the configured denoiser, decode them with
  the task decoder, and write the motion, a sampler trace CSV, and a summary.
* ``refine``: run the full lifecycle (scaffold -> features -> memory ->
  sample -> residuals -> routed refinement) and write the refined motion,
  anchors, a refinement trace CSV, and a summary with control errors.
* ``bench``: time the pipeline per preset, writing CSV rows
  ``setting,steps,time_per_sample_s``.

Configuration is a strict JSON document (unknown keys are rejected, exit
code 2); runtime failures exit 1. One master seed drives every stochastic
piece through fixed ``numpy.random.SeedSequence`` children, spawned in the
order: task, codebook, codec, anchors, memory, sampler, denoiser. All data
artifacts are therefore byte-reproducible for a given (config, seed); wall
times are printed to stdout, never written into data files, except for the
timing CSV that is the entire point of ``bench``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .attention import encode_memory
from .containers import save_anchors, save_motion
from .motion import ControlFamily, Motion, observe
from .refine import GUARD_SLACK, RefineStep, SolverConfig, objective, refine, soft_init
from .scaffold import Anchor, AnchorSet, build_features, build_intervals, residuals
from .synthworld import (
    OracleDenoiser,
    SynthTask,
    control_error,
    make_codebook,
    make_motion,
    make_paired_codec,
    tokenize,
)
from .tokenflow import FlowSchedule, SampleStep, sample

PRESETS = {"rs0": 0, "rs100": 100, "rs200": 200, "rs500": 500}
SAMPLED_ANCHOR_COUNTS = (2, 4, 8, 16, 32)


class ConfigError(ValueError):
    """Raised for malformed run configuration; maps to exit code 2."""


class RefinementDiverged(RuntimeError):
    """Refinement ended with a non-finite objective or above its start; exit code 1."""


@dataclass(frozen=True)
class TokenConfig:
    length: int = 16
    frames_per_token: int = 4
    codebook_size: int = 32
    embed_dim: int = 16
    separation: float = 0.3
    memory_dim: int = 16


@dataclass(frozen=True)
class AnchorSpec:
    count: int | None = 4
    frames: tuple[int, ...] | None = None
    targets: tuple[tuple[float, ...], ...] | None = None


@dataclass(frozen=True)
class RunConfig:
    seed: int
    task: SynthTask
    family: ControlFamily
    anchors: AnchorSpec
    tokens: TokenConfig
    schedule: FlowSchedule
    solver: SolverConfig
    confusion: float = 0.0


def _take(section: dict, where: str, allowed: dict) -> dict:
    """Strictly read a config section: unknown keys are errors."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    out = dict(allowed)
    out.update(section)
    return out


def _take_fields(section: dict, where: str, cls):
    """Strictly build dataclass ``cls`` from a section: its fields are the keys."""
    return cls(**_take(section, where, {f.name: f.default for f in fields(cls)}))


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    top = _take(
        doc,
        "config",
        {
            "seed": 0,
            "task": {},
            "family": {},
            "anchors": {},
            "tokens": {},
            "schedule": {},
            "solver": {},
            "denoiser": {},
        },
    )

    try:
        task_raw = _take(
            top["task"],
            "task",
            {
                "kind": "line",
                "frames": 64,
                "joints": 6,
                "noise": 0.0,
                "velocity": [0.1, 0.0, 0.0],
                "radius": 1.0,
                "amplitude": 0.3,
                "period": 32.0,
            },
        )
        velocity = tuple(float(v) for v in task_raw.pop("velocity"))
        if len(velocity) != 3:
            raise ConfigError("task.velocity must have 3 components")
        task = SynthTask(velocity=velocity, seed=0, **task_raw)

        fam_raw = _take(
            top["family"], "family", {"variant": "root3d", "joint": None, "tolerance": 0.05}
        )
        joint = fam_raw["joint"]
        family = ControlFamily(
            fam_raw["variant"],
            float(fam_raw["tolerance"]),
            int(joint) if joint is not None else None,
        )

        anc_raw = _take(top["anchors"], "anchors", {"count": None, "frames": None, "targets": None})
        if anc_raw["frames"] is not None:
            if anc_raw["count"] is not None:
                raise ConfigError("anchors: give either count or frames, not both")
            frames = tuple(int(f) for f in anc_raw["frames"])
            targets = anc_raw["targets"]
            if targets is not None:
                targets = tuple(tuple(float(x) for x in row) for row in targets)
                if len(targets) != len(frames):
                    raise ConfigError("anchors: one target per frame required")
            anchors = AnchorSpec(count=None, frames=frames, targets=targets)
        else:
            count = anc_raw["count"] if anc_raw["count"] is not None else 4
            if count not in SAMPLED_ANCHOR_COUNTS:
                raise ConfigError(
                    f"anchors.count must be one of {list(SAMPLED_ANCHOR_COUNTS)}"
                )
            anchors = AnchorSpec(count=int(count))

        tokens = _take_fields(top["tokens"], "tokens", TokenConfig)
        schedule = _take_fields(top["schedule"], "schedule", FlowSchedule)
        solver = _take_fields(top["solver"], "solver", SolverConfig)

        den_raw = _take(top["denoiser"], "denoiser", {"kind": "oracle", "confusion": 0.0})
        if den_raw["kind"] != "oracle":
            raise ConfigError("denoiser.kind must be 'oracle'")
        confusion = float(den_raw["confusion"])

        return RunConfig(
            seed=int(top["seed"]),
            task=task,
            family=family,
            anchors=anchors,
            tokens=tokens,
            schedule=schedule,
            solver=solver,
            confusion=confusion,
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(doc)


@dataclass(frozen=True)
class World:
    """Everything a run needs, derived deterministically from one seed."""

    gt: Motion
    anchors: AnchorSet
    codebook: object
    encoder: np.ndarray
    decoder: object
    clean: object
    memory: object
    sampler_rng: np.random.Generator
    denoiser: OracleDenoiser


def build_world(config: RunConfig) -> World:
    tok = config.tokens
    if tok.length * tok.frames_per_token < config.task.frames:
        raise ConfigError("tokens.length * frames_per_token must cover task.frames")
    if config.family.variant == "body_point" and config.family.joint >= config.task.joints:
        raise ConfigError("family.joint out of range for task.joints")

    children = np.random.SeedSequence(config.seed).spawn(7)
    task_seed, cb_seed, codec_seed, anchor_seed, memory_seed, sampler_seed, den_seed = (
        int(c.generate_state(1)[0]) for c in children
    )

    gt = make_motion(replace(config.task, seed=task_seed))
    config.family.validate_for(gt)
    codebook = make_codebook(tok.codebook_size, tok.embed_dim, tok.separation, cb_seed)
    encoder, decoder = make_paired_codec(
        codebook, tok.length, config.task.frames, config.task.joints, tok.frames_per_token, codec_seed
    )

    obs = observe(gt, config.family)
    if config.anchors.frames is not None:
        frames = np.asarray(config.anchors.frames, dtype=np.int64)
        if np.any((frames < 0) | (frames >= gt.frames)):
            raise ConfigError("anchor frame outside the motion")
        if config.anchors.targets is not None:
            targets = np.asarray(config.anchors.targets, dtype=np.float64)
        else:
            targets = obs[frames]
    else:
        anchor_rng = np.random.default_rng(anchor_seed)
        frames = np.sort(anchor_rng.choice(gt.frames, size=config.anchors.count, replace=False))
        targets = obs[frames]
    anchors = AnchorSet(
        config.family, tuple(Anchor(int(f), t) for f, t in zip(frames, targets))
    )

    features = build_features(anchors, gt.frames)
    memory_rng = np.random.default_rng(memory_seed)
    w_in = memory_rng.normal(size=(features.values.shape[1], tok.memory_dim))
    w_in /= np.sqrt(features.values.shape[1])
    memory = encode_memory(features, tok.frames_per_token, w_in)

    clean = tokenize(gt, codebook, tok.frames_per_token, encoder)
    denoiser = OracleDenoiser(clean, codebook.size, config.confusion, den_seed)
    return World(
        gt=gt,
        anchors=anchors,
        codebook=codebook,
        encoder=encoder,
        decoder=decoder,
        clean=clean,
        memory=memory,
        sampler_rng=np.random.default_rng(sampler_seed),
        denoiser=denoiser,
    )


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_sample_trace(path: Path, rows: list[SampleStep]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "t", "updates", "mean_d"])
        for r in rows:
            writer.writerow([r.step, repr(r.t), r.updates, repr(r.mean_distance)])


def _write_refine_trace(path: Path, rows: list[RefineStep]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "objective", "anchor_loss", "mean_activity", "update_norm"])
        for r in rows:
            writer.writerow(
                [r.step, repr(r.objective), repr(r.anchor_loss), repr(r.mean_activity), repr(r.update_norm)]
            )


def run_sample(config: RunConfig, out_dir: str | Path) -> dict:
    """Sample tokens, decode, write artifacts; returns the summary dict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    world = build_world(config)

    trace: list[SampleStep] = []
    tokens = sample(
        world.denoiser,
        config.tokens.length,
        world.codebook,
        config.schedule,
        context=world.memory,
        rng=world.sampler_rng,
        trace=trace,
    )
    motion = world.decoder.decode(soft_init(tokens, world.codebook).u)

    summary = {
        "token_match": float(np.mean(tokens.ids == world.clean.ids)),
        "num_tokens": len(tokens),
        "codebook_size": world.codebook.size,
        "sampler_steps": config.schedule.steps,
        "seed": config.seed,
    }
    save_motion(out / "motion.bin", motion)
    _write_sample_trace(out / "trace.csv", trace)
    _write_json(out / "tokens.json", {"ids": tokens.ids.tolist()})
    _write_json(out / "summary.json", summary)
    return summary


def run_refine(config: RunConfig, out_dir: str | Path) -> dict:
    """Full lifecycle: sample, decode, refine against the anchors.

    Raises ``RefinementDiverged``, before any artifact is written, when the
    refined objective is not finite or exceeds the initial one by more than
    the gradient-descent guard's slack.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    world = build_world(config)

    tokens = sample(
        world.denoiser,
        config.tokens.length,
        world.codebook,
        config.schedule,
        context=world.memory,
        rng=world.sampler_rng,
    )
    soft = soft_init(tokens, world.codebook)
    initial = world.decoder.decode(soft.u)
    error_before = control_error(initial, world.anchors)
    residual_scaffold = residuals(initial, world.anchors)

    intervals = build_intervals(world.anchors, world.gt.frames)
    started = time.perf_counter()
    refined_soft, trace = refine(
        soft, world.decoder, world.anchors, intervals, config.solver, config.tokens.frames_per_token
    )
    elapsed = time.perf_counter() - started
    value_before, _ = objective(soft, world.decoder, world.anchors, config.solver)
    value_after, _ = objective(refined_soft, world.decoder, world.anchors, config.solver)
    if not value_after <= GUARD_SLACK * value_before:
        raise RefinementDiverged(
            f"refinement diverged: objective {value_before!r} -> {value_after!r}"
        )
    refined = world.decoder.decode(refined_soft.u)
    error_after = control_error(refined, world.anchors)

    summary = {
        "control_error_before": error_before,
        "control_error_after": error_after,
        "anchor_loss_before": float(np.sum(residual_scaffold.residuals**2)),
        "steps": config.solver.steps,
        "num_anchors": len(world.anchors),
        "token_match": float(np.mean(tokens.ids == world.clean.ids)),
        "seed": config.seed,
    }
    save_motion(out / "motion_initial.bin", initial)
    save_motion(out / "motion_refined.bin", refined)
    save_anchors(out / "anchors.json", world.anchors)
    _write_refine_trace(out / "trace.csv", trace)
    _write_json(out / "summary.json", summary)
    print(f"refine: {config.solver.steps} steps in {elapsed:.3f} s")
    return summary


def run_bench(config: RunConfig, out_dir: str | Path, presets: list[str] | None = None) -> list[dict]:
    """Time the sample+refine pipeline per preset; informational only."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = presets if presets is not None else ["rs0", "rs100", "rs200", "rs500"]

    rows = []
    for name in names:
        if name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r}")
        cfg = replace(config, solver=replace(config.solver, steps=PRESETS[name]))
        world = build_world(cfg)
        started = time.perf_counter()
        tokens = sample(
            world.denoiser,
            cfg.tokens.length,
            world.codebook,
            cfg.schedule,
            context=world.memory,
            rng=world.sampler_rng,
        )
        soft = soft_init(tokens, world.codebook)
        intervals = build_intervals(world.anchors, world.gt.frames)
        refine(soft, world.decoder, world.anchors, intervals, cfg.solver, cfg.tokens.frames_per_token)
        elapsed = time.perf_counter() - started
        rows.append({"setting": name, "steps": PRESETS[name], "time_per_sample_s": elapsed})

    with open(out / "bench.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["setting", "steps", "time_per_sample_s"])
        for row in rows:
            writer.writerow([row["setting"], row["steps"], f"{row['time_per_sample_s']:.6f}"])
    for row in rows:
        print(f"bench: {row['setting']} ({row['steps']} steps) {row['time_per_sample_s']:.3f} s/sample")
    return rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchorsynth",
        description="Sparse-anchor motion synthesis on a synthetic task",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("sample", "generate tokens and decode a motion"),
        ("refine", "generate, then refine against the anchors"),
        ("bench", "time the pipeline per preset"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", type=Path, default=None, help="JSON run config")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", type=Path, required=True, help="output directory")
        cmd.add_argument(
            "--preset",
            choices=sorted(PRESETS),
            default=None,
            help="refinement step preset (sets solver.steps)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else parse_config({})
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.preset is not None and args.command != "bench":
            config = replace(config, solver=replace(config.solver, steps=PRESETS[args.preset]))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "sample":
            run_sample(config, args.out)
        elif args.command == "refine":
            run_refine(config, args.out)
        else:
            presets = [args.preset] if args.preset else None
            run_bench(config, args.out, presets)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())
