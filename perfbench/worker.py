"""One benchmark process: set up a workload, run timed passes, check outputs.

Started by ``run.py`` from the root of a checkout, with ``src`` on
``PYTHONPATH``:

    python3 perfbench/worker.py --workload bell_scan --seed 1 --seconds 30 --trace 0

``--setup-only`` stops after set-up (importing the package and making
the inputs) and reports its time.  Otherwise the worker runs one
untimed warm-up pass, then timed passes until ``--seconds`` is used.
With ``--trace 1`` traced and untraced passes alternate, so the tracing
overhead is measured in the same process.  Every pass runs the
workload's CLI commands in this process through ``weakbell.cli.main``,
and its outputs are checked and hashed after the pass, outside the
timed span.  The result is one JSON object on the last stdout line.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

OUT_DIR = Path("perfbench-out")
MIN_TIMED_PASSES = 3
MIN_TRACED_PASSES = 2
MAX_PROBLEMS = 20


class Run:
    """Outcome bookkeeping shared by all passes of one worker."""

    def __init__(self, commands, seed: int):
        self.commands = commands
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: list[str] | None = None
        self.codes: list[int] = []

    def problem(self, text: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(text)

    def run_pass(self, cli) -> list[float]:
        """Run every command once; returns per-command wall times."""
        times = []
        self.codes = []
        for command in self.commands:
            start = time.perf_counter()
            code = cli.main(list(command.argv))
            times.append(time.perf_counter() - start)
            self.codes.append(code)
        return times

    def check_pass(self, outdir: Path, label: str) -> int:
        """Check the outputs of the last pass; returns work units completed.

        The first pass's output bytes are the reference: every later pass,
        traced or not, must write the same bytes.
        """
        units = 0
        digests = []
        for k, (command, code) in enumerate(zip(self.commands, self.codes)):
            self.attempted += 1
            path = outdir / command.out
            done, problems, digest = 0, [f"exit code {code}"], ""
            if code == 0:
                try:
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    done, problems = command.check(path, self.seed)
                except Exception as exc:  # a malformed output is a failed command
                    problems = [f"unreadable output: {exc!r}"]
            digests.append(digest)
            if self.reference is not None and digest != self.reference[k]:
                problems.append("output bytes differ from the first pass")
            if problems:
                self.failed += 1
                self.problem(f"{label} {command.argv[0]} ({command.out}): {'; '.join(problems[:3])}")
            else:
                units += done
        if self.reference is None:
            self.reference = digests
        return units


def timed_passes(run: Run, cli, outdir: Path, seconds: float) -> dict:
    walls, rates, per_command = [], [], []
    start = time.perf_counter()
    while True:
        times = run.run_pass(cli)
        wall = sum(times)
        units = run.check_pass(outdir, f"pass {len(walls) + 1}")
        walls.append(wall)
        rates.append(units / wall)
        per_command.append(times)
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_TIMED_PASSES and elapsed + wall > seconds:
            break
    return {
        "walls": walls,
        "work_per_s": statistics.median(rates),
        "units": units,
        "command_s": [statistics.median(col) for col in zip(*per_command)],
    }


def traced_passes(run: Run, cli, outdir: Path, seconds: float, spans_path: Path) -> dict:
    from tracer import EXACT_COUNTS, Tracer, layer_metrics

    tracer = Tracer()
    traced_walls, plain_walls, layers = [], [], []
    start = time.perf_counter()
    while True:
        tracer.reset()
        tracer.install()
        try:
            wall = sum(run.run_pass(cli))
        finally:
            tracer.uninstall()
        run.check_pass(outdir, f"traced pass {len(traced_walls) + 1}")
        traced_walls.append(wall)
        layers.append(layer_metrics(tracer.spans, tracer.heap_peaks))
        plain = sum(run.run_pass(cli))
        run.check_pass(outdir, f"untraced pass {len(plain_walls) + 1}")
        plain_walls.append(plain)
        elapsed = time.perf_counter() - start
        if len(traced_walls) >= MIN_TRACED_PASSES and elapsed + wall + plain > seconds:
            break
    for name in EXACT_COUNTS:
        values = {m[name] for m in layers}
        if len(values) != 1:
            run.failed += 1
            run.problem(f"counter {name} differs between traced passes: {sorted(values)}")
    write_spans(spans_path, tracer.spans)
    metrics = {
        name: layers[0][name] if name in EXACT_COUNTS else statistics.median(m[name] for m in layers)
        for name in layers[0]
    }
    metrics["trace.overhead"] = statistics.median(traced_walls) / statistics.median(plain_walls)
    return {"layers": metrics, "traced_walls": traced_walls, "walls": plain_walls}


def write_spans(path: Path, spans) -> None:
    """Spans of the last traced pass, gzipped JSON; times in ns from the pass start."""
    origin = spans[0][1] if spans else 0.0
    names = sorted({span[0] for span in spans})
    index = {name: k for k, name in enumerate(names)}
    rows = [
        [index[name], round((start - origin) * 1e9), round((end - origin) * 1e9), parent]
        for name, start, end, parent, _ in spans
    ]
    payload = {"names": names, "fields": ["name", "start_ns", "end_ns", "parent"], "spans": rows}
    with gzip.open(path, "wt", compresslevel=1) as handle:
        json.dump(payload, handle, separators=(",", ":"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    # set-up: import the package, then make the inputs
    import numpy
    import scipy
    from weakbell import __version__, cli

    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        commands = workloads.commands(args.workload, args.seed, outdir)
        result = {"setup_s": time.perf_counter() - start}
        if not args.setup_only:
            run = Run(commands, args.seed)
            run.run_pass(cli)
            run.check_pass(outdir, "warm-up pass")
            if args.trace:
                spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
                result.update(traced_passes(run, cli, outdir, args.seconds, spans))
                result["spans_file"] = str(spans)
            else:
                result.update(timed_passes(run, cli, outdir, args.seconds))
            result.update(
                commands=[" ".join(c.argv[:-2]) for c in commands],
                attempted=run.attempted,
                failed=run.failed,
                problems=run.problems,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                versions={
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "scipy": scipy.__version__,
                    "weakbell": __version__,
                },
            )
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
