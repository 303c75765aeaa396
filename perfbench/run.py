"""Benchmark of the weakbell CLI on the README inputs.

Run from the root of a checkout (the package is loaded from ``src``):

    python3 perfbench/run.py --workload pointer_sweep --seed 1 --seconds 30 --trace 0

Each workload runs in fresh processes of its own, so that set-up time
and peak RSS belong to it.  Set-up-only processes run before and after
the worker process that runs the timed passes, and the median set-up
time is reported.  With ``--trace 0`` the end-to-end metrics are
reported, with ``--trace 1`` the per-layer metrics of a traced run.
The last stdout line is the JSON result; the full record, with the run
context, is written to ``perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import unit_of
from workloads import WORK_UNITS

SETUP_PROBES = 6
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WORKER = Path(__file__).resolve().parent / "worker.py"
PACKAGE = Path("src") / "weakbell"
OUT_DIR = Path("perfbench-out")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def call_worker(args, extra, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    argv = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("time limit reached before the worker started")
    try:
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, env=env, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {done.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise WorkerError(f"worker printed no result: {lines[-1][:200]!r}") from None


def context(args, worker: dict) -> dict:
    """Where and with what the numbers were measured."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = None
    if Path(".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
            git_sha = done.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "versions": worker.get("versions"),
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "commands": worker.get("commands"),
        "tracing_overhead": worker["layers"]["trace.overhead"] if args.trace else None,
    }


def summary(args, metrics: dict, units: dict, worker: dict, attempted: int, failed: int) -> list[str]:
    lines = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}"]
    for name, value in metrics.items():
        lines.append(f"  {name:40s} {value:>16.6g} {units[name]}")
    if not args.trace:
        rate = metrics["work_per_s"]
        unit = WORK_UNITS[args.workload]
        lines.append(f"  {unit + '_per_s':40s} {rate:>16.6g} 1/s  ({worker['units']} {unit} per pass)")
        lines.append(f"  wall_s samples: {len(worker['walls'])} timed passes")
    lines.append(f"  {'error_rate':40s} {failed / attempted:>16.6g} ({failed} of {attempted} commands)")
    for problem in worker.get("problems", []):
        lines.append(f"  problem: {problem}")
    return lines


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="weakbell CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORK_UNITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must lie in 1..60")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: {PACKAGE}/cli.py not found; run from the root of a weakbell checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        # set-up probes on both sides of the worker, so that their median
        # spans the run rather than one moment of the machine
        setups = [call_worker(args, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
        worker = call_worker(args, [], deadline)
        setups += [call_worker(args, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    setups.append(worker["setup_s"])

    if args.trace:
        metrics = worker["layers"]
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(worker["walls"]),
            "work_per_s": worker["work_per_s"],
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    attempted, failed = worker["attempted"], worker["failed"]
    run_context = context(args, worker)
    record = {
        "context": run_context,
        "metrics": metrics,
        "setup_samples_s": setups,
        "worker": worker,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    for line in summary(args, metrics, units, worker, attempted, failed):
        print(line)
    print(f"  context: {json.dumps(run_context)}")
    print(f"  record: {record_path}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
