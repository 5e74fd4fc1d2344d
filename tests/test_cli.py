import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from anchorsynth import cli
from anchorsynth.cli import (
    ConfigError,
    _write_json,
    build_world,
    load_config,
    main,
    parse_config,
    run_bench,
    run_refine,
    run_sample,
)
from anchorsynth.motion import observe
from anchorsynth.refine import soft_init
from anchorsynth.tokenflow import sample

STANDARD = Path(__file__).resolve().parents[1] / "configs" / "standard.json"


# --------------------------------------------------------------------- config


def test_parse_empty_config_uses_defaults():
    cfg = parse_config({})
    assert cfg.seed == 0
    assert cfg.task.kind == "line"
    assert cfg.tokens.length == 16
    assert cfg.solver.steps == 200


def test_parse_rejects_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config({"tasks": {}})


def test_parse_rejects_unknown_nested_key():
    with pytest.raises(ConfigError, match="solver"):
        parse_config({"solver": {"step": 0.1}})


@pytest.mark.parametrize("section", ["tokens", "schedule", "solver"])
def test_parse_rejects_unknown_key_in_dataclass_section(section):
    with pytest.raises(ConfigError, match=f"unknown keys in {section}"):
        parse_config({section: {"bogus": 1}})


def test_parse_rejects_bad_anchor_count():
    with pytest.raises(ConfigError, match="count"):
        parse_config({"anchors": {"count": 5}})


def test_parse_rejects_count_and_frames_together():
    with pytest.raises(ConfigError, match="not both"):
        parse_config({"anchors": {"count": 4, "frames": [1, 2]}})


def test_parse_explicit_anchor_frames():
    cfg = parse_config({"anchors": {"frames": [3, 17, 40]}})
    assert cfg.anchors.frames == (3, 17, 40)
    assert cfg.anchors.targets is None


def test_parse_rejects_bad_solver_value():
    with pytest.raises(ConfigError):
        parse_config({"solver": {"step_size": -1.0}})


def test_standard_config_file_parses():
    cfg = load_config(STANDARD)
    assert cfg.tokens.codebook_size == 32
    assert cfg.solver.steps == 200


# ---------------------------------------------------------------- build_world


def test_world_anchors_come_from_ground_truth():
    from anchorsynth.scaffold import anchor_loss

    world = build_world(parse_config({}))
    assert len(world.anchors) == 4
    assert anchor_loss(world.gt, world.anchors) == 0.0


def test_world_explicit_frames_and_targets():
    cfg = parse_config(
        {"anchors": {"frames": [2, 30], "targets": [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]}}
    )
    world = build_world(cfg)
    np.testing.assert_array_equal(world.anchors.frames, [2, 30])
    np.testing.assert_array_equal(world.anchors.targets[1], [1.0, 2.0, 3.0])


def test_world_rejects_anchor_frame_outside_motion():
    cfg = parse_config({"anchors": {"frames": [999]}})
    with pytest.raises(ConfigError, match="outside"):
        build_world(cfg)


def test_world_memory_is_token_aligned():
    cfg = parse_config({})
    world = build_world(cfg)
    assert world.memory.values.shape == (cfg.tokens.length, cfg.tokens.memory_dim)


# ------------------------------------------------------------------- commands


def test_run_sample_artifacts_and_match(tmp_path):
    summary = run_sample(parse_config({}), tmp_path)
    assert summary["token_match"] >= 0.95
    assert (tmp_path / "motion.bin").exists()
    assert (tmp_path / "tokens.json").exists()
    with open(tmp_path / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "t", "updates", "mean_d"]
    assert len(rows) == 1 + 64


def test_run_sample_single_tiny_step_stays_random(tmp_path):
    # one sampler step with a tiny time grid keeps rates ~0: random baseline
    cfg = parse_config({"schedule": {"steps": 1, "t_max": 1e-9}})
    summary = run_sample(cfg, tmp_path)
    assert summary["token_match"] <= 0.3  # ~1/32 plus sampling noise


def test_run_refine_reduces_control_error(tmp_path):
    summary = run_refine(parse_config({}), tmp_path)
    assert summary["control_error_after"] <= 0.1 * summary["control_error_before"]
    assert summary["steps"] == 200
    assert summary["num_anchors"] == 4
    for name in ("motion_initial.bin", "motion_refined.bin", "anchors.json", "trace.csv"):
        assert (tmp_path / name).exists()
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert set(doc) >= {"control_error_before", "control_error_after", "steps"}


def test_run_refine_zero_steps_keeps_error(tmp_path):
    cfg = parse_config({"solver": {"steps": 0}})
    summary = run_refine(cfg, tmp_path)
    assert summary["control_error_after"] == summary["control_error_before"]


def test_refine_trace_csv_schema(tmp_path):
    cfg = parse_config({"solver": {"steps": 3}})
    run_refine(cfg, tmp_path)
    with open(tmp_path / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "objective", "anchor_loss", "mean_activity", "update_norm"]
    assert len(rows) == 4


def test_run_bench_rows_and_schema(tmp_path):
    cfg = parse_config({"solver": {"steps": 0}})
    rows = run_bench(cfg, tmp_path, presets=["rs0", "rs100"])
    assert [r["setting"] for r in rows] == ["rs0", "rs100"]
    assert rows[0]["time_per_sample_s"] > 0
    with open(tmp_path / "bench.csv") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["setting", "steps", "time_per_sample_s"]
    assert [row[0] for row in parsed[1:]] == ["rs0", "rs100"]


def test_run_bench_time_grows_with_refine_steps(tmp_path):
    rows = run_bench(parse_config({}), tmp_path)
    by_name = {r["setting"]: r["time_per_sample_s"] for r in rows}
    assert by_name["rs500"] > by_name["rs200"] > by_name["rs100"]


# ------------------------------------------------------------- main/exit codes


def test_main_success_exit_zero(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"solver": {"steps": 1}}))
    assert main(["refine", "--config", str(config), "--out", str(tmp_path / "out")]) == 0


def test_main_config_error_exit_two(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"bogus": 1}))
    code = main(["sample", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_main_unreadable_config_exit_two(tmp_path):
    assert main(["sample", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 2


def test_main_inconsistent_config_exit_two(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"family": {"variant": "body_point", "joint": 50}}))
    code = main(["refine", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_main_runtime_error_exit_one(tmp_path, capsys):
    # parseable config whose codebook separation is infeasible to sample
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps({"tokens": {"separation": 0.95, "codebook_size": 64, "embed_dim": 8}})
    )
    code = main(["sample", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_main_unknown_solver_key_exit_two(tmp_path, capsys):
    # the residual tolerance has one setting, family.tolerance
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"solver": {"tolerance": 0.1}}))
    assert main(["refine", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "unknown keys in solver" in capsys.readouterr().err


def test_main_support_radius_key_exit_two(tmp_path, capsys):
    # support_radius changed no artifact at any value, so it is not a config key
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"support_radius": 2}))
    assert main(["refine", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "unknown keys in config: ['support_radius']" in capsys.readouterr().err


@pytest.mark.parametrize("step_size", [0.065, 0.07])  # finite 1e133 m, and Infinity
def test_main_diverged_heavy_ball_exit_one(tmp_path, capsys, step_size):
    config = tmp_path / "cfg.json"
    solver = {"optimizer": "heavy_ball", "step_size": step_size, "steps": 500}
    config.write_text(json.dumps({"solver": solver}))
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["refine", "--config", str(config), "--out", str(out)])
    assert code == 1
    assert "refinement diverged" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_run_refine_from_the_optimum_exits_zero(tmp_path):
    # anchors met by the initial motion and no smoothness term: zero gradient
    doc = {"anchors": {"frames": [10, 40]}, "solver": {"smooth_weight": 0.0}}
    cfg = parse_config(doc)
    world = build_world(cfg)
    tokens = sample(
        world.denoiser,
        cfg.tokens.length,
        world.codebook,
        cfg.schedule,
        context=world.memory,
        rng=world.sampler_rng,
    )
    initial = world.decoder.decode(soft_init(tokens, world.codebook).u)
    doc["anchors"]["targets"] = observe(initial, cfg.family)[[10, 40]].tolist()
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["refine", "--config", str(config), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["control_error_before"] == summary["control_error_after"] == 0.0


@pytest.mark.parametrize("rise, code", [(1e-12, 0), (1e-6, 1)])
def test_run_refine_divergence_check_shares_the_guard_slack(tmp_path, monkeypatch, rise, code):
    values = iter([2.0, 2.0 * (1.0 + rise)])
    monkeypatch.setattr(cli, "objective", lambda *args: (next(values), {}))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"solver": {"steps": 1}}))
    assert main(["refine", "--config", str(config), "--out", str(tmp_path / "out")]) == code


def test_summary_json_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError):
        _write_json(tmp_path / "summary.json", {"control_error_after": float("inf")})


def test_import_does_not_load_scipy():
    import anchorsynth

    probe = "import anchorsynth, sys; assert 'scipy' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": str(Path(anchorsynth.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)


def test_main_preset_overrides_steps(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"solver": {"steps": 1}}))
    out = tmp_path / "out"
    assert main(["refine", "--config", str(config), "--out", str(out), "--preset", "rs100"]) == 0
    assert json.loads((out / "summary.json").read_text())["steps"] == 100


def test_main_seed_flag_overrides_config(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["sample", "--out", str(out_a), "--seed", "7"]) == 0
    assert main(["sample", "--out", str(out_b), "--seed", "7"]) == 0
    assert (out_a / "motion.bin").read_bytes() == (out_b / "motion.bin").read_bytes()


# ---------------------------------------------------------------- determinism


def test_sample_byte_reproducible(tmp_path):
    for sub in ("x", "y"):
        assert main(["sample", "--out", str(tmp_path / sub), "--seed", "3"]) == 0
    for name in ("motion.bin", "trace.csv", "tokens.json", "summary.json"):
        assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()


def test_refine_byte_reproducible(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"solver": {"steps": 25}}))
    for sub in ("x", "y"):
        assert main(["refine", "--config", str(config), "--out", str(tmp_path / sub)]) == 0
    names = ("motion_initial.bin", "motion_refined.bin", "anchors.json", "trace.csv", "summary.json")
    for name in names:
        assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()
