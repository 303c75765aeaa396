"""Workload definitions: the CLI commands of one pass and their output checks.

Every command is a README invocation of ``weakbell`` with ``--out``
pointing into the run's temporary directory.  A check parses one output
file and returns ``(work units completed, problems)``; each tolerance
is the one the acceptance test named beside it asserts.

Why these workloads:

* ``pointer_sweep`` builds 616 pointers per pass (up to 3.3 M nodes at
  G = 0.005); pointer construction and quadrature dominate, ``bell``
  takes about a fifth and ``montecarlo`` nothing.
* ``bell_scan`` makes 9,801 + 199 = 10,000 chain evaluations and builds
  no pointer; the complex 4x4 plumbing of ``bell`` and ``channel``
  dominates.  It exercises the chain propagator, ``pointer_sweep`` and
  ``mc_long`` bypass most of it.
* ``mc_long`` is the README Monte Carlo run, 1e6 trials; per-trial
  sampling, collapse and tally dominate, and memory is the other cost.
  The other two workloads never call ``montecarlo``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SQ2 = math.sqrt(2.0)
G_GRID = "0.005:0.995:0.005"
MC_TRIALS = 1_000_000


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    out: str
    check: Callable[[Path, int], tuple[int, list[str]]]


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [r for r in reader]
    return header, rows


def _floats(rows, start: int = 0) -> list[list[float]]:
    return [[float(v) for v in r[start:]] for r in rows]


def _expect_rows(rows, count: int, problems: list[str]) -> None:
    if len(rows) != count:
        problems.append(f"expected {count} rows, got {len(rows)}")


# --- pointer_sweep ---------------------------------------------------------


def check_tradeoff_optimal(path: Path, seed: int):
    """c01: |F - sqrt(1-G^2)| < 1e-6 along the optimal family."""
    _, raw = _rows(path)
    problems: list[str] = []
    _expect_rows(raw, 9, problems)
    for target, f, _ in _floats(raw, 1):
        if not abs(f - math.sqrt(1.0 - target * target)) < 1e-6:
            problems.append(f"frontier gap at G={target}: F={f}")
    return len(raw), problems


def check_tradeoff_square(path: Path, seed: int):
    """c03: square pointers obey G = 1 - F, with (1/3, 2/3) at half width 1.5."""
    _, raw = _rows(path)
    problems: list[str] = []
    _expect_rows(raw, 9, problems)
    for width, f, g in _floats(raw, 1):
        if not abs(g - (1.0 - f)) < 1e-8:
            problems.append(f"G != 1-F at half width {width}: F={f}, G={g}")
        if width == 1.5 and not (abs(f - 1.0 / 3.0) < 1e-8 and abs(g - 2.0 / 3.0) < 1e-8):
            problems.append(f"half width 1.5 gives F={f}, G={g}")
    return len(raw), problems


def _check_double(path: Path, second_bob) -> tuple[int, list[str], list[list[float]]]:
    """c04: I1 = 2 sqrt2 G for any first-Bob strength, I2 from second_bob(G, I2)."""
    _, raw = _rows(path)
    rows = _floats(raw)
    problems: list[str] = []
    _expect_rows(rows, 199, problems)
    for g, first, second in rows:
        if not abs(first - 2.0 * SQ2 * g) < 1e-8:
            problems.append(f"I1 at G={g}: {first}")
        problem = second_bob(g, second)
        if problem:
            problems.append(f"I2 at G={g}: {problem}")
    return len(rows), problems, rows


def _doubles(rows) -> bool:
    return any(first > 2.0 and second > 2.0 for _, first, second in rows)


def check_double_square(path: Path, seed: int):
    """c03 and c04: I2 = sqrt2 (1 + F) with F = 1 - G; never two violations."""
    n, problems, rows = _check_double(
        path, lambda g, i2: None if abs(i2 - SQ2 * (2.0 - g)) < SQ2 * 1e-8 else i2
    )
    if _doubles(rows):
        problems.append("square pointer violates twice")
    return n, problems


def check_double_gaussian(path: Path, seed: int):
    """I2 within the frontier bound; a double-violation window exists (test_bell)."""
    bound = lambda g: SQ2 * (1.0 + math.sqrt(1.0 - g * g))  # noqa: E731
    n, problems, rows = _check_double(
        path, lambda g, i2: None if i2 <= bound(g) + 1e-9 else i2
    )
    if not _doubles(rows):
        problems.append("gaussian pointer has no double-violation window")
    return n, problems


def check_double_optimal(path: Path, seed: int):
    """c01 and c04: I2 = sqrt2 (1 + sqrt(1-G^2)) within sqrt2 * 1e-6."""
    frontier = lambda g: SQ2 * (1.0 + math.sqrt(1.0 - g * g))  # noqa: E731
    n, problems, rows = _check_double(
        path, lambda g, i2: None if abs(i2 - frontier(g)) < SQ2 * 1e-6 else i2
    )
    if not _doubles(rows):
        problems.append("optimal pointer never violates twice")
    return n, problems


def check_pointer_dump(path: Path, seed: int):
    """Unit norm to 1e-9, and c02: F = 0.6, G = 0.8 within 1e-6 at target 0.8."""
    _, raw = _rows(path)
    q = [float(r[0]) for r in raw]
    phi = [float(r[1]) for r in raw]
    problems: list[str] = []
    if len(q) < 4:
        return 0, ["pointer dump has fewer than four nodes"]
    h = q[1] - q[0]
    shift = round(2.0 / h)
    norm = math.fsum(a * a for a in phi) * h
    quality = math.fsum(phi[i + shift] * phi[i] for i in range(len(phi) - shift)) * h
    prec = math.fsum(a * a for x, a in zip(q, phi) if abs(x) < 1.0) * h
    if not abs(norm - 1.0) < 1e-9:
        problems.append(f"norm {norm}")
    if not abs(quality - 0.6) < 1e-6:
        problems.append(f"F = {quality}")
    if not abs(prec - 0.8) < 1e-6:
        problems.append(f"G = {prec}")
    return 1, problems


# --- bell_scan -------------------------------------------------------------


def check_triple_scan(path: Path, seed: int):
    """c12: 9801 cells and no triple violation."""
    report = json.loads(path.read_text())
    problems = []
    if report.get("cells") != 99 * 99:
        problems.append(f"cells = {report.get('cells')}")
    if not report.get("max_min_chsh", math.inf) <= 2.0:
        problems.append(f"max_min_chsh = {report.get('max_min_chsh')}")
    return int(report.get("cells", 0)), problems


def check_double_analytic(path: Path, seed: int):
    """c04: closed forms within 1e-8; both I equal 1.6 sqrt2 > 2 at G = 0.8."""
    n, problems, rows = _check_double(
        path,
        lambda g, i2: None if abs(i2 - SQ2 * (1.0 + math.sqrt(1.0 - g * g))) < 1e-8 else i2,
    )
    anchor = [r for r in rows if abs(r[0] - 0.8) < 1e-9]
    if len(anchor) != 1:
        problems.append("no row at G = 0.8")
    else:
        _, first, second = anchor[0]
        for value in (first, second):
            if not (abs(value - 2.2627416997969522) < 1e-4 and value > 2.0):
                problems.append(f"G = 0.8 gives I = {value}")
    return n, problems


def check_protocol_auto_bias(path: Path, seed: int):
    """c08: every bound of the 8-stage feasible schedule is at least 2."""
    _, raw = _rows(path)
    problems: list[str] = []
    _expect_rows(raw, 8, problems)
    for row in raw:
        if not float(row[6]) >= 2.0:
            problems.append(f"stage {row[0]} bound {row[6]}")
    return 0, problems


def check_protocol_limit(path: Path, seed: int):
    """c09: V_{n+1} / (V_n^3 / 4) within 0.01 of 1 at 2->3, 1e-4 at 10->11."""
    _, raw = _rows(path)
    problems: list[str] = []
    _expect_rows(raw, 12, problems)
    if len(raw) == 12:
        log10_v = [float(r[9]) for r in raw]
        for n, tol in ((2, 0.01), (10, 1e-4)):
            ratio = 10.0 ** (log10_v[n] - 3.0 * log10_v[n - 1] + math.log10(4.0))
            if not abs(ratio - 1.0) < tol:
                problems.append(f"decay ratio {n}->{n + 1} = {ratio}")
    return 0, problems


# --- mc_long -----------------------------------------------------------------


def check_montecarlo(path: Path, seed: int):
    """c11: |z| < 4 per Bob against the analytic CHSH, chi-square p > 1e-3."""
    report = json.loads(path.read_text())
    problems = []
    if report.get("trials") != MC_TRIALS or report.get("seed") != seed:
        problems.append(f"trials {report.get('trials')}, seed {report.get('seed')}")
    g = 0.8
    expected = (2.0 * SQ2 * g, SQ2 * (1.0 + math.sqrt(1.0 - g * g)))
    bobs = report.get("per_bob", [])
    if len(bobs) != 2:
        problems.append(f"{len(bobs)} Bob reports")
    for k, (bob, target) in enumerate(zip(bobs, expected), 1):
        z = abs(bob["chsh"] - target) / bob["stderr"]
        if not z < 4.0:
            problems.append(f"Bob {k}: |z| = {z}")
    p_value = report.get("chi_square", {}).get("p_value", 0.0)
    if not p_value > 1e-3:
        problems.append(f"chi-square p = {p_value}")
    return int(report.get("trials", 0)), problems


# --- workloads ---------------------------------------------------------------

# name of the work unit each workload completes, for the summary
WORK_UNITS = {"pointer_sweep": "pointers", "bell_scan": "chains", "mc_long": "trials"}


def commands(workload: str, seed: int, outdir: Path) -> list[Command]:
    """The commands of one pass; only mc_long's input depends on the seed."""
    specs = {
        "pointer_sweep": [
            ("tradeoff --family optimal --g 0.1:0.9:0.1", check_tradeoff_optimal),
            ("tradeoff --family square --delta 1:3:0.25", check_tradeoff_square),
            (f"double --family square --g {G_GRID}", check_double_square),
            (f"double --family gaussian --g {G_GRID}", check_double_gaussian),
            (f"double --family optimal --g {G_GRID}", check_double_optimal),
            ("pointer-dump --family optimal --g 0.8", check_pointer_dump),
        ],
        "bell_scan": [
            ("triple-scan --resolution 0.01", check_triple_scan),
            (f"double --family analytic --g {G_GRID}", check_double_analytic),
            ("protocol --n 8 --auto-bias", check_protocol_auto_bias),
            ("protocol --n 12 --limit", check_protocol_limit),
        ],
        "mc_long": [
            (
                f"montecarlo --scenario double --g 0.8 --trials 1e6 --seed {seed}",
                check_montecarlo,
            ),
        ],
    }[workload]
    out = []
    for k, (line, check) in enumerate(specs):
        argv = line.split()
        suffix = ".json" if argv[0] in ("triple-scan", "montecarlo") else ".csv"
        name = f"{k}_{argv[0]}{suffix}"
        out.append(Command(tuple(argv) + ("--out", str(outdir / name)), name, check))
    return out
