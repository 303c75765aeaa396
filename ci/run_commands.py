"""Run each row of ci/commands.json in a fresh process and check it against one policy.

    python ci/run_commands.py --out DIR

A row is a weakbell command line (its ``argv``, without ``--out``) and what
it must do. Its child process calls ``weakbell.cli.main(argv + ["--out",
DIR/name])`` in-process, with ``PYTHONWARNINGS=error::RuntimeWarning``, and
then reads its own peak RSS. The row passes when:

- the exit code is the row's ``exit``;
- exit 0 left ``DIR/name``; exit 2 printed exactly one line, ``error: ...``,
  and left neither ``DIR/name`` nor its temporary file;
- scipy was not loaded;
- the peak RSS is at most the row's ``peak_mb`` and the child ended within
  its ``timeout_s``, where the row sets them.

Each row's ``measured`` holds the peak, time, versions and commit its
bounds came from; a bound is kept or lowered, never raised. The runner
writes ``DIR/results.json`` and exits 1 naming each row that failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

TABLE = Path(__file__).with_name("commands.json")

CHILD = """
import json, resource, sys, time
from weakbell.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(json.dumps({
    "exit": code,
    "seconds": round(time.perf_counter() - start, 3),
    "peak_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "scipy": "scipy" in sys.modules,
    "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
}))
"""


def run_row(row: dict, out: Path) -> dict:
    """Run one row in a fresh child and return what it did, with the policy's failures."""
    path = out / row["name"]
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"}
    argv = [sys.executable, "-c", CHILD, *row["argv"], "--out", str(path)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=row.get("timeout_s"))
    except subprocess.TimeoutExpired:
        return {"name": row["name"], "failures": [f"no exit within {row['timeout_s']} s"]}
    errors = proc.stderr.splitlines()
    if proc.returncode != 0:
        return {"name": row["name"], "failures": [f"child exited {proc.returncode}: {errors[-1:]}"]}
    result = {"name": row["name"], **json.loads(proc.stdout.splitlines()[-1])}
    failures = []
    if result["exit"] != row["exit"]:
        failures.append(f"exit {result['exit']}, expected {row['exit']}: {errors[-1:]}")
    elif row["exit"] == 0 and not path.is_file():
        failures.append("exit 0 left no output")
    elif row["exit"] == 2:
        if len(errors) != 1 or not errors[0].startswith("error: "):
            failures.append(f"stderr is not one error line: {errors}")
        if path.exists() or any(out.glob(f".{path.name}.*.tmp")):
            failures.append("a refused command left a file")
    if result["scipy"]:
        failures.append("scipy was loaded")
    if result["peak_mb"] > row.get("peak_mb", float("inf")):
        failures.append(f"peak RSS {result['peak_mb']} MB over the {row['peak_mb']} MB bound")
    result["failures"] = failures
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="directory for the outputs and results.json")
    out = parser.parse_args(argv).out
    out.mkdir(parents=True, exist_ok=True)
    results = []
    for row in json.loads(TABLE.read_text()):
        result = run_row(row, out)
        verdict = "FAILED " + "; ".join(result["failures"]) if result["failures"] else "ok"
        print(f"{row['name']}: exit {result.get('exit')}, {result.get('seconds')} s, "
              f"peak RSS {result.get('peak_mb')} MB: {verdict}", flush=True)
        results.append(result)
    report = {"python": platform.python_version(), "rows": results}
    (out / "results.json").write_text(json.dumps(report, indent=2) + "\n")
    failed = [result["name"] for result in results if result["failures"]]
    if failed:
        print(f"{len(failed)} rows failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
