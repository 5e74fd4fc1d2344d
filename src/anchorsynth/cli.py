"""Command-line pipeline runner.

Subcommands:

* ``sample``: generate tokens with the configured denoiser, decode them with
  the task decoder, and write the motion, a sampler trace CSV, and a summary.
* ``refine``: run the full lifecycle (scaffold -> features -> memory ->
  sample -> residuals -> routed refinement) and write the refined motion,
  anchors, a refinement trace CSV, and a summary with control errors.
* ``bench``: time the ``refine`` request (:func:`refine_request`) per preset,
  writing CSV rows ``setting,steps,time_per_sample_s``.

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
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .attention import encode_memory
from .containers import save_anchors, save_motion
from .motion import ControlFamily, Motion, observe
from .refine import GUARD_SLACK, RefineStep, SolverConfig, objective, refine, soft_init
from .scaffold import Anchor, AnchorSet, build_features, build_intervals
from .synthworld import (
    OracleDenoiser,
    SynthTask,
    control_error,
    make_codebook,
    make_motion,
    make_paired_codec,
    tokenize,
)
from .tokenflow import FlowSchedule, SampleStep, TokenSeq, sample

PRESETS = {"rs0": 0, "rs100": 100, "rs200": 200, "rs500": 500}
SAMPLED_ANCHOR_COUNTS = (2, 4, 8, 16, 32)
# Width of the condition memory. No denoiser reads the memory, so the width
# changes no artifact; it is fixed so that the memory RNG draws stay the same.
MEMORY_DIM = 16


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


def _integer(value, where: str) -> int:
    """An integer config value: a float or a bool is a defect, never truncated."""
    if type(value) is not int:
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _typed(value, default, where: str):
    """A config value of its default's type: the one rule for typed keys.

    An int default takes only an int; a float default a finite int or float,
    never a bool, stored as a float; a str default only a str; a tuple default
    a list or tuple of its length, each entry under this rule. A None default
    leaves the value to its caller's check.
    """
    if type(default) is int:
        return _integer(value, where)
    if type(default) is float:
        # NaN fails the comparison; Infinity and ints beyond float range exceed the max
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    if type(default) is tuple:
        if isinstance(value, (list, tuple)) and len(value) == len(default):
            return tuple(_typed(v, default[i], f"{where}[{i}]") for i, v in enumerate(value))
        raise ConfigError(f"{where} must be a list of {len(default)} values, got {value!r}")
    if type(default) is str and type(value) is not str:
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _take_fields(section: dict, where: str, cls, exclude: tuple[str, ...] = (), **defaults):
    """Strictly build dataclass ``cls`` from a section whose keys are its fields
    less ``exclude``. Each value must have the type of its default (``_typed``);
    ``defaults`` supplies a default the dataclass leaves out."""
    keys = {f.name: defaults.get(f.name, f.default) for f in fields(cls) if f.name not in exclude}
    values = _take(section, where, keys)
    typed = {name: _typed(values[name], keys[name], f"{where}.{name}") for name in keys}
    try:
        return cls(**typed)
    except ValueError as exc:  # a range check of the dataclass: name the section
        raise ConfigError(f"{where}: {exc}") from exc


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
        # build_world derives the task seed from the master seed
        task = _take_fields(top["task"], "task", SynthTask, exclude=("seed",))
        joint = top["family"].get("joint") if isinstance(top["family"], dict) else None
        if joint is not None:  # before ControlFamily compares it with 0
            _integer(joint, "family.joint")
        family = _take_fields(top["family"], "family", ControlFamily, variant="root3d")

        anc_raw = _take(top["anchors"], "anchors", {"count": None, "frames": None, "targets": None})
        if anc_raw["frames"] is not None:
            if anc_raw["count"] is not None:
                raise ConfigError("anchors: give either count or frames, not both")
            if not isinstance(anc_raw["frames"], (list, tuple)):
                raise ConfigError(f"anchors.frames must be a list, got {anc_raw['frames']!r}")
            frames = tuple(_integer(f, "anchors.frames entry") for f in anc_raw["frames"])
            if len(set(frames)) != len(frames):
                raise ConfigError("anchors.frames must be distinct")
            targets = anc_raw["targets"]
            if targets is not None:
                if not isinstance(targets, (list, tuple)):
                    raise ConfigError(f"anchors.targets must be a list, got {targets!r}")
                row = (0.0,) * family.control_dim
                targets = tuple(
                    _typed(t, row, f"anchors.targets[{i}]") for i, t in enumerate(targets)
                )
                if len(targets) != len(frames):
                    raise ConfigError("anchors: one target per frame required")
            anchors = AnchorSpec(count=None, frames=frames, targets=targets)
        elif anc_raw["targets"] is not None:
            raise ConfigError("anchors.targets needs anchors.frames")
        else:
            anchors = AnchorSpec()
            if anc_raw["count"] is not None:
                anchors = AnchorSpec(_integer(anc_raw["count"], "anchors.count"))
            if anchors.count not in SAMPLED_ANCHOR_COUNTS:
                raise ConfigError(
                    f"anchors.count must be one of {list(SAMPLED_ANCHOR_COUNTS)}"
                )

        tokens = _take_fields(top["tokens"], "tokens", TokenConfig)
        schedule = _take_fields(top["schedule"], "schedule", FlowSchedule)
        solver = _take_fields(top["solver"], "solver", SolverConfig)

        den_raw = _take(top["denoiser"], "denoiser", {"kind": "oracle", "confusion": 0.0})
        if den_raw["kind"] != "oracle":
            raise ConfigError("denoiser.kind must be 'oracle'")
        confusion = _typed(den_raw["confusion"], 0.0, "denoiser.confusion")
        if not (0.0 <= confusion < 1.0):
            raise ConfigError("denoiser.confusion must lie in [0, 1)")

        return RunConfig(
            seed=_integer(top["seed"], "seed"),
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
    if config.seed < 0:
        raise ConfigError("seed must be nonnegative")
    if tok.codebook_size < 2:
        raise ConfigError("tokens.codebook_size must be at least 2")
    if not (0.0 <= tok.separation <= 2.0):
        raise ConfigError("tokens.separation must lie in [0, 2]")
    if tok.embed_dim > 3 * config.task.joints:
        raise ConfigError("tokens.embed_dim must be at most 3 * task.joints")

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
    w_in = memory_rng.normal(size=(features.values.shape[1], MEMORY_DIM))
    w_in /= np.sqrt(features.values.shape[1])
    memory = encode_memory(features, tok.frames_per_token, w_in)

    clean = tokenize(gt, codebook, tok.frames_per_token, encoder)
    denoiser = OracleDenoiser(clean, codebook.size, config.confusion, den_seed)
    return World(
        gt=gt,
        anchors=anchors,
        codebook=codebook,
        decoder=decoder,
        clean=clean,
        memory=memory,
        sampler_rng=np.random.default_rng(sampler_seed),
        denoiser=denoiser,
    )


def generate(world: World, config: RunConfig, trace: list[SampleStep] | None = None) -> TokenSeq:
    """Sample a token sequence from the world's denoiser under the configured schedule."""
    return sample(
        world.denoiser,
        config.tokens.length,
        world.codebook,
        config.schedule,
        context=world.memory,
        rng=world.sampler_rng,
        trace=trace,
    )


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_trace(path: Path, header: list[str], rows: list) -> None:
    """A trace CSV: one row per trace record, each field at repr precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(v) for v in astuple(r)] for r in rows)


def run_sample(config: RunConfig, out_dir: str | Path) -> dict:
    """Sample tokens, decode, write artifacts; returns the summary dict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    world = build_world(config)

    trace: list[SampleStep] = []
    tokens = generate(world, config, trace)
    motion = world.decoder.decode(soft_init(tokens, world.codebook).u)

    summary = {
        "token_match": float(np.mean(tokens.ids == world.clean.ids)),
        "num_tokens": len(tokens),
        "codebook_size": world.codebook.size,
        "sampler_steps": config.schedule.steps,
        "seed": config.seed,
    }
    save_motion(out / "motion.bin", motion)
    _write_trace(out / "trace.csv", ["step", "t", "updates", "mean_d"], trace)
    _write_json(out / "tokens.json", {"ids": tokens.ids.tolist()})
    _write_json(out / "summary.json", summary)
    return summary


@dataclass(frozen=True)
class RefineRun:
    """What one refine request yields: the motions before and after refinement."""

    world: World
    tokens: TokenSeq
    initial: Motion
    refined: Motion
    trace: list[RefineStep]
    anchor_loss_before: float
    seconds: float  # generate -> soft_init -> build_intervals -> refine


def refine_request(config: RunConfig) -> RefineRun:
    """Generate under the anchors, then refine against them: the request that
    ``refine`` writes out and ``bench`` times.

    Raises ``RefinementDiverged`` when the refined objective is not finite or
    exceeds the initial one by more than the gradient-descent guard's slack.
    """
    world = build_world(config)
    started = time.perf_counter()
    tokens = generate(world, config)
    soft = soft_init(tokens, world.codebook)
    intervals = build_intervals(world.anchors, world.gt.frames)
    refined_soft, trace = refine(
        soft, world.decoder, world.anchors, intervals, config.solver, config.tokens.frames_per_token
    )
    seconds = time.perf_counter() - started
    value_before, parts_before = objective(soft, world.decoder, world.anchors, config.solver)
    value_after, _ = objective(refined_soft, world.decoder, world.anchors, config.solver)
    if not value_after <= GUARD_SLACK * value_before:
        raise RefinementDiverged(
            f"refinement diverged: objective {value_before!r} -> {value_after!r}"
        )
    return RefineRun(
        world=world,
        tokens=tokens,
        initial=world.decoder.decode(soft.u),
        refined=world.decoder.decode(refined_soft.u),
        trace=trace,
        anchor_loss_before=parts_before["anc"],
        seconds=seconds,
    )


def run_refine(config: RunConfig, out_dir: str | Path) -> dict:
    """Write the refine request's artifacts, none if it diverges; returns the summary dict."""
    run = refine_request(config)
    anchors = run.world.anchors
    summary = {
        "control_error_before": control_error(run.initial, anchors),
        "control_error_after": control_error(run.refined, anchors),
        "anchor_loss_before": run.anchor_loss_before,
        "steps": config.solver.steps,
        "num_anchors": len(anchors),
        "token_match": float(np.mean(run.tokens.ids == run.world.clean.ids)),
        "seed": config.seed,
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_motion(out / "motion_initial.bin", run.initial)
    save_motion(out / "motion_refined.bin", run.refined)
    save_anchors(out / "anchors.json", anchors)
    header = ["step", "objective", "anchor_loss", "mean_activity", "update_norm"]
    _write_trace(out / "trace.csv", header, run.trace)
    _write_json(out / "summary.json", summary)
    print(f"refine: {config.solver.steps} steps, request {run.seconds:.3f} s")
    return summary


def run_bench(config: RunConfig, out_dir: str | Path, presets: list[str] | None = None) -> list[dict]:
    """Time the refine request per preset; a diverged one raises before ``bench.csv`` is written."""
    rows = []
    for name in PRESETS if presets is None else presets:
        if name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r}")
        cfg = replace(config, solver=replace(config.solver, steps=PRESETS[name]))
        seconds = refine_request(cfg).seconds
        rows.append({"setting": name, "steps": PRESETS[name], "time_per_sample_s": seconds})

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
        if name != "sample":  # sampling runs no refinement steps
            cmd.add_argument(
                "--preset", choices=sorted(PRESETS), help="refinement step preset (sets solver.steps)"
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else parse_config({})
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.command == "refine" and args.preset is not None:
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
