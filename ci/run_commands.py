"""Run each row of ci/commands.json in a fresh process and check it against one policy.

    python ci/run_commands.py --out DIR

A row is a weakbell command line (its ``argv``, without ``--out``) and what
it must do. Its child process calls ``weakbell.cli.main(argv + ["--out",
DIR/name])`` in-process, with ``PYTHONWARNINGS=error::RuntimeWarning``, and
then reads its own peak RSS. The row passes when:

- the exit code is the row's ``exit``;
- exit 0 left ``DIR/name`` with mode 0o666 less the umask, as open() would
  have created it; exit 2 printed exactly the row's ``error`` line and left
  neither ``DIR/name`` nor its temporary file;
- scipy was not loaded;
- the peak RSS is at most the row's ``peak_mb`` and the child ended within
  its ``timeout_s``, where the row sets them.

Each row's ``measured`` holds the peak, time, versions and commit its
bounds came from; a bound is kept or lowered, never raised. The runner
writes ``DIR/results.json``, which holds each row's exit code, stderr,
output size and SHA-256, time, peak and failures: two passes, over two
trees, wrote the same bytes and refusals when their rows agree on
``exit``, ``stderr`` and ``sha256``. An output over 100 MB (only the
near-cap dumps, 611-633 MB each) is removed once it is checked and hashed,
so a pass leaves under 100 MB under DIR; no later CI step reads one. The
runner exits 1 naming each row that failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import stat
import subprocess
import sys
from pathlib import Path

TABLE = Path(__file__).with_name("commands.json")
# a checked and hashed output larger than this is removed
MAX_KEPT_BYTES = 100_000_000

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


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _created_mode() -> int:
    """The mode open() gives a new file: 0o666 less the process umask."""
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


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
    result.update(stderr=proc.stderr, bytes=None, sha256=None)
    failures = []
    if result["exit"] != row["exit"]:
        failures.append(f"exit {result['exit']}, expected {row['exit']}: {errors[-1:]}")
    elif row["exit"] == 0 and not path.is_file():
        failures.append("exit 0 left no output")
    elif row["exit"] == 0:
        info, expected = path.stat(), _created_mode()
        if stat.S_IMODE(info.st_mode) != expected:
            failures.append(f"output mode {stat.S_IMODE(info.st_mode):o}, expected {expected:o}")
        result.update(bytes=info.st_size, sha256=_sha256(path))
        if result["bytes"] > MAX_KEPT_BYTES:
            path.unlink()
    elif row["exit"] == 2:
        if errors != [row.get("error")]:
            failures.append(f"stderr {errors}, expected [{row.get('error')!r}]")
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
