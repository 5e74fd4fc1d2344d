"""Closed-loop benchmark of the anchorsynth request path.

Run from the root of a checkout:

    python3 perfbench/run.py --workload std-rs500 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A request is one seed taken through the calls ``anchorsynth refine`` makes:
``cli.build_world``, ``tokenflow.sample``, ``refine.soft_init``, decode,
``synthworld.control_error``, ``scaffold.build_intervals``,
``refine.refine``, decode and ``control_error`` again; requests write no
artifacts. One client sends requests in a closed loop for ``--seconds``
seconds, and every output passes the gate in ``load.py``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs every
request untraced and traced and reports the per-layer metrics. The table
goes to stderr; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A record of the machine, the
requests and (when traced) every span is written under ``perfbench/out/``.
The exit code is 0 only when no request failed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
IMPORT_PROBES = 11
# Set before numpy loads: at or below nproc, and at most 2, which is also
# OpenBLAS's own default on the 2-core machine the benchmark was sized on.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: str(BLAS_THREADS) for name in BLAS_ENV})
    env["PYTHONPATH"] = str(SRC)
    return env


def import_seconds() -> float:
    """``import anchorsynth`` timed inside a fresh interpreter."""
    probe = (
        "import time; t = time.perf_counter(); import anchorsynth; "
        "print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _command_output(args: list[str]) -> str | None:
    try:
        done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_record(bench_seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "anchorsynth").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())

    def cache(level: int) -> int | None:
        size = _command_output(["getconf", f"LEVEL{level}_CACHE_SIZE"])
        return int(size) if size and size.isdigit() else None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "git_commit": _command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None,
        "src_sha256": digest.hexdigest(),
        "bench_seed": bench_seed,
        "l2_bytes": cache(2),
        "l3_bytes": cache(3),
    }


def run_workload(name: str, bench_seed: int, seconds: float, traced: bool) -> int:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)  # before numpy is first imported
    if not traced:
        import_seconds()  # the first import also compiles the bytecode
    sys.path.insert(0, str(SRC))
    import anchorsynth

    if not Path(anchorsynth.__file__).resolve().is_relative_to(SRC):
        print(f"anchorsynth was imported from {anchorsynth.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import load

    workload = WORKLOADS[name]
    config = load.load_config(workload, ROOT)
    record = {"workload": name, "seconds": seconds, "trace": int(traced)}
    record["machine"] = machine_record(bench_seed)
    if traced:
        result = load.traced_loop(config, bench_seed, seconds)
    else:
        result = load.closed_loop(workload, config, bench_seed, seconds, import_seconds, IMPORT_PROBES)
    metrics = dict(result["metrics"])
    records = result["records"]
    failed = sum(1 for r in records if r["problems"])
    if not traced and metrics:
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB")
        record["tail_percentile"] = result["tail_percentile"]
        record["import_s_runs"] = result["imports"]
    record.update(
        attempted=len(records),
        failed=failed,
        failed_ratio=failed / len(records),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        absent=result.get("absent", []),
        requests=[{k: v for k, v in r.items() if k != "ids"} for r in records],
    )

    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{bench_seed}-trace{int(traced)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        result["tracer"].write_csv(OUT / f"{stem}-spans.csv")

    print(f"# {name} seed={bench_seed} trace={int(traced)} machine={json.dumps(record['machine'])}", file=sys.stderr)
    for key, (value, unit) in sorted(metrics.items()):
        note = ""
        if key == "sample_s.tail":
            note = f"  (p{result['tail_percentile']:.1f} of {len(records) - failed} requests)"
        print(f"{key:32s} {value:14.6g} {unit}{note}", file=sys.stderr)
    print(f"{'failed_ratio':32s} {record['failed_ratio']:14.6g} 1  ({failed} of {len(records)})", file=sys.stderr)
    for name_absent in record["absent"]:
        print(f"absent wrap target: {name_absent}", file=sys.stderr)
    for r in records:
        for problem in r["problems"]:
            print(f"request {r['index']} seed {r['seed']}: {problem}", file=sys.stderr)

    correct = failed == 0 and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(records),
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1


def run_all(bench_seed: int, seconds: float, traced: bool) -> int:
    """Each workload in a fresh interpreter, so memory and imports are its own."""
    status = 0
    for name in WORKLOADS:
        args = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        args += ["--seed", str(bench_seed), "--seconds", str(seconds), "--trace", str(int(traced))]
        done = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        status = status or done.returncode
        print(f"{name}: {done.stdout.strip().splitlines()[-1] if done.stdout.strip() else 'no result'}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True, help="bench seed; request seeds derive from it")
    parser.add_argument("--seconds", type=float, required=True, help="how long the loop measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "anchorsynth" / "__init__.py").is_file():
        print(f"no anchorsynth sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
