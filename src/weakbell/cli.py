"""Command-line front end: figure and table reproductions as CSV/JSON.

Commands: tradeoff, double, protocol, montecarlo, pointer-dump,
triple-scan.  Numeric sweeps use the range syntax start:stop:step with
inclusive endpoints.  Every output file is written by _write_blocks: to a
temporary file in its directory, created exclusively, then renamed into
place; a temporary name that is already taken exits 2.  WEAKBELL_OUTDIR
sets the default output directory.  pointer-dump and double hand their
output over as text blocks (a pointer's runs of nodes, 4,096 rows of a
sweep), and each block is written, to the temporary file or to stdout,
as it is formatted, so the whole text is never held; every input is
checked before the first block is written.
Each command imports the package modules it runs when it runs, so
importing this module and parsing a command line load no numpy, and
protocol never does; --spacing is None when not given and stands for
pointer.DEFAULT_GRID_SPACING.
Exit codes: 0 success, 2 usage or validation error, 1 internal error, 141
(128 + SIGPIPE) when the reader of --out - closes the pipe early, and 130
or 143 (128 + SIGINT or SIGTERM) after one "interrupted by <signal>" line.
Both signals unwind the command, so a partly written output's temporary
file is removed: SIGINT as Python's KeyboardInterrupt, SIGTERM through a
handler that main installs only on the main thread, and only while it
runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import signal
import sys
import threading
from pathlib import Path

from .errors import InvalidParameterError, InvalidStateError, NodeCapError, PhysicalityError

OUTDIR_ENV = "WEAKBELL_OUTDIR"

_VALIDATION_ERRORS = (InvalidParameterError, InvalidStateError, PhysicalityError, ValueError)

# bounds on the work one command may ask for
MAX_RANGE_POINTS = 100_000
MIN_TRIPLE_RESOLUTION = 0.002  # 499 x 499 cells
MAX_PROTOCOL_STAGES = 10_000
# run_chain draws outcome counts, not trials, so the cap costs what 10^6
# trials cost (double scenario, one CPU, numpy 2.4.6): 0.33-0.35 ms in
# run_chain at --g 0.8, 0.002 or 1.0, ~1.0 ms in-process for the whole
# command at --g 0.8 once the parser is built; it is kept because lifting it
# would turn refusals into outputs
MAX_TRIALS = 10**9


def _finite(text: str, spec: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InvalidParameterError(f"bad number {text!r} in range {spec!r}") from None
    if not math.isfinite(value):
        raise InvalidParameterError(f"range {spec!r} has a non-finite value {text!r}")
    return value


def parse_range(spec: str) -> list[float]:
    """Parse start:stop:step into an inclusive grid, or a single value."""
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise InvalidParameterError(f"range must be start:stop:step, got {spec!r}")
    numbers = [_finite(part, spec) for part in parts]
    if len(numbers) == 1:
        return numbers
    start, stop, step = numbers
    if step <= 0 or stop < start:
        raise InvalidParameterError(f"bad range {spec!r}: need stop >= start and step > 0")
    steps = (stop - start) / step + 0.5  # inf when the quotient overflows
    if not steps < MAX_RANGE_POINTS:
        raise InvalidParameterError(f"range {spec!r} has more than {MAX_RANGE_POINTS} points")
    count = int(math.floor(steps)) + 1
    values = [start + k * step for k in range(count)]
    return [v for v in values if v <= stop + step / 2.0]


def _default_out(name: str) -> Path:
    base = os.environ.get(OUTDIR_ENV, ".")
    return Path(base) / name


def _write_blocks(path: Path, blocks) -> None:
    """Write each text block to a temporary file in path's directory as it comes, then rename it into place.

    The one function that creates an output file. open(temp, "x") creates
    the temporary file exclusively, with mode 0o666 less the umask, inside
    the try that removes it: a failed write, blocks raising or a signal
    from then on leave path as it was and no temporary file. A temporary
    name that is already another file's raises FileExistsError and leaves
    that file as it is.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.parent / f".{path.name}.{os.urandom(6).hex()}.tmp"
    try:
        with open(temp, "x") as handle:
            for block in blocks:
                handle.write(block)
        os.replace(temp, path)
    except FileExistsError:  # the name is another file's
        raise
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


def _emit(args, output, default_name: str) -> None:
    """Write output, one text or an iterable of text blocks, to --out ('-' for stdout).

    One text is one block; blocks are written one at a time as they are
    formatted, to stdout or through _write_blocks.
    """
    blocks = (output,) if isinstance(output, str) else output
    out = args.out
    if out == "-":
        for block in blocks:
            sys.stdout.write(block)
        return
    path = Path(out) if out else _default_out(default_name)
    try:
        _write_blocks(path, blocks)
    except OSError as exc:
        where = "--out" if out else f"--out (default under ${OUTDIR_ENV})"
        reason = exc.strerror or str(exc)
        # name the blocking path when it is a parent, never the temp file
        if exc.filename is not None and Path(exc.filename) in path.parents:
            reason += f": {str(exc.filename)!r}"
        raise InvalidParameterError(f"cannot write {where} {str(path)!r}: {reason}") from None


def load_config(path: str) -> dict:
    """Read a JSON or key=value config file."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"cannot read config file {path!r}: {exc}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise InvalidParameterError(f"config file {path!r} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise InvalidParameterError("config file must hold a JSON object")
        return data
    data = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidParameterError(f"config line {lineno} is not key=value: {line!r}")
        key, value = line.split("=", 1)
        data[key.strip()] = value.strip()
    return data


_SWITCH_WORDS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def _config_text(key: str, value) -> str:
    """The text a config value stands for on the command line.

    Strings stand for themselves, booleans for true/false and finite
    numbers for their repr; anything else is refused.
    """
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int) or (isinstance(value, float) and math.isfinite(value)):
        return repr(value)
    raise InvalidParameterError(f"config key {key!r} needs a string, boolean or finite number, got {value!r}")


def config_flags(args: argparse.Namespace) -> list[str]:
    """The --config file's entries as command-line flags.

    Each value is turned into the text it stands for and parsed by the
    same argparse action as the flag, so a config value is checked
    exactly as the flag would be (an int flag rejects 1.9 and 7.0).
    Switches such as --auto-bias take true/false, yes/no, on/off or 1/0.
    """
    data = load_config(args.config)
    allowed = {k for k in vars(args) if k not in ("config", "command")}
    flags = []
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in allowed:
            raise InvalidParameterError(f"unknown config key {key!r}")
        flag = "--" + dest.replace("_", "-")
        if isinstance(getattr(args, dest), bool):
            on = _SWITCH_WORDS.get(_config_text(key, value).lower())
            if on is None:
                raise InvalidParameterError(f"config key {key!r} must be true or false, got {value!r}")
            if on:
                flags.append(flag)
        else:
            flags.append(f"{flag}={_config_text(key, value)}")
    return flags


def parse_command_line(argv) -> argparse.Namespace:
    """Parse argv; a --config file's flags go before argv's own, so explicit flags win."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        args = parser.parse_args([argv[0], *config_flags(args), *argv[1:]])
    return args


# --- commands -----------------------------------------------------------------


_FAMILY_PARAM_FLAG = {
    "square": "delta",
    "gaussian": "delta",
    "exponential": "scale",
    "optimal": "g",
    "worst": "g",
}


def _family_parameter(args) -> str:
    """The text of the one parameter flag args.family takes; the other families' flags are refused."""
    flag = _FAMILY_PARAM_FLAG[args.family]
    text = getattr(args, flag)
    if text is None:
        raise InvalidParameterError(f"family {args.family!r} needs --{flag}")
    for other in ("delta", "scale", "g"):
        if other != flag and getattr(args, other) is not None:
            raise InvalidParameterError(f"family {args.family!r} does not take --{other}")
    return text


def _with_spacing_advice(args, build):
    """build(h) at h = --spacing, pointer.DEFAULT_GRID_SPACING where it is not given.

    Its node-cap refusal also advises a coarser --spacing, for the
    commands that take one.
    """
    from .pointer import DEFAULT_GRID_SPACING

    spacing = DEFAULT_GRID_SPACING if args.spacing is None else args.spacing
    try:
        return build(spacing)
    except NodeCapError as exc:
        raise NodeCapError(f"{exc}, or a coarser --spacing", exc.nodes, exc.index) from None


def cmd_tradeoff(args) -> int:
    from . import pointer

    grid = parse_range(_family_parameter(args))
    rows = _with_spacing_advice(args, lambda h: pointer.tradeoff_curve(args.family, grid, grid_spacing=h))
    _emit(args, pointer.tradeoff_to_csv(args.family, rows), f"tradeoff_{args.family}.csv")
    return 0


def cmd_double(args) -> int:
    from . import bell

    grid = parse_range(args.g)
    rows = bell.double_violation_curve(args.family, grid)
    _emit(args, bell.double_curve_to_csv(rows), f"double_{args.family}.csv")
    return 0


def cmd_protocol(args) -> int:
    from . import protocol

    if not 1 <= args.n <= MAX_PROTOCOL_STAGES:
        raise InvalidParameterError(f"--n must lie in 1..{MAX_PROTOCOL_STAGES}, got {args.n}")
    modes = sum(bool(v) for v in (args.auto_bias, args.limit, args.bias is not None))
    if modes > 1:
        raise InvalidParameterError("choose one of --bias, --auto-bias, --limit")
    if args.auto_bias:
        bias = protocol.feasible_uniform_bias(args.n) if args.n >= 2 else 0.0
    elif args.bias is not None:
        bias = args.bias
    else:
        bias = 0.0  # --limit, and the default
    schedule = protocol.build_schedule(args.n, bias)
    _emit(args, protocol.schedule_to_csv(schedule), f"protocol_n{args.n}.csv")
    return 0


def _montecarlo_config(scenario: str, target_precision: float) -> bell.BellChainConfig:
    """The Tsirelson chain: a frontier Bob at the target G, then a strong one for "double"."""
    from . import bell, pointer

    if scenario not in ("single", "double"):
        raise InvalidParameterError(f"unknown scenario {scenario!r} (choose single or double)")
    alice = bell.tsirelson_alice()
    bob = bell.tsirelson_bob()
    strong = pointer.MeasurementStrength(0.0, 1.0)
    weak = strong if target_precision >= 1.0 else pointer._family_strength("optimal", target_precision)
    stages = (bell.BobStage(bob[0], bob[1], weak, bias=0.5),)
    if scenario == "double":
        stages += (bell.BobStage(bob[0], bob[1], strong, bias=0.5),)
    return bell.BellChainConfig(alice[0], alice[1], stages=stages)


def cmd_montecarlo(args) -> int:
    from . import montecarlo

    if not (math.isfinite(args.trials) and args.trials == int(args.trials)):
        raise InvalidParameterError(f"--trials must be an integer, got {args.trials}")
    if args.trials < 1:
        raise InvalidParameterError(f"--trials must be >= 1, got {args.trials}")
    if args.trials > MAX_TRIALS:
        raise InvalidParameterError(f"--trials must be at most {MAX_TRIALS}, got {int(args.trials)}")
    if not 0.0 < args.g <= 1.0:
        raise InvalidParameterError(f"--g must lie in (0, 1], got {args.g}")
    if not 0 <= args.seed < 2**128:
        raise InvalidParameterError(f"--seed must lie in 0..2**128-1 (a Philox key), got {args.seed}")
    cfg = _montecarlo_config(args.scenario, args.g)
    report = montecarlo.run_chain(cfg, int(args.trials), args.seed)
    # the run's table against the joint it split its counts by, on the table's axes: the
    # chain is walked once, and C order is the sorted key order chi_square_report fits in
    chi2 = montecarlo._chi_square(report.table, montecarlo._table_axes(report.joint), report.trials)
    payload = report.to_dict()
    payload["chi_square"] = chi2.to_dict()
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _emit(args, text, f"montecarlo_{args.scenario}.json")
    return 0


def cmd_pointer_dump(args) -> int:
    from . import pointer

    value = float(_family_parameter(args))
    state = _with_spacing_advice(args, lambda h: pointer._FAMILY_BUILDERS[args.family](value, grid_spacing=h))
    _emit(args, pointer.samples_to_csv(state), f"pointer_{args.family}.csv")
    return 0


def cmd_triple_scan(args) -> int:
    from . import bell

    if not MIN_TRIPLE_RESOLUTION <= args.resolution < 0.5:
        raise InvalidParameterError(
            f"--resolution must lie in [{MIN_TRIPLE_RESOLUTION}, 0.5), got {args.resolution}"
        )
    step = args.resolution
    grid = [step * k for k in range(1, int(round(1.0 / step)))]
    grid = [v for v in grid if 0.0 < v < 1.0]
    report = bell.unbiased_triple_scan(grid, grid)
    payload = {"resolution": step, **report.to_dict()}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _emit(args, text, "triple_scan.json")
    return 0


# --- parser -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first call and reused for the process.

    It holds no command function: main looks cmd_<command> up when it
    runs, so a rebound cmd_* takes effect after the parser is built.
    """
    parser = argparse.ArgumentParser(
        prog="weakbell",
        description="Weak pointer measurements and sequential CHSH violation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output path ('-' for stdout; default under $WEAKBELL_OUTDIR)")
        p.add_argument("--config", help="JSON or key=value config file (flags override)")

    p = sub.add_parser("tradeoff", help="precision/quality-factor curve of a pointer family")
    p.add_argument("--family", required=True, choices=sorted(_FAMILY_PARAM_FLAG))
    p.add_argument("--delta", help="width grid start:stop:step (square, gaussian)")
    p.add_argument("--scale", help="scale grid start:stop:step (exponential)")
    p.add_argument("--g", help="target-precision grid start:stop:step (optimal, worst)")
    p.add_argument("--spacing", type=float)
    common(p)

    p = sub.add_parser("double", help="CHSH of two sequential Bobs vs the first Bob's precision")
    p.add_argument("--family", default="analytic", choices=["analytic", "optimal", "gaussian", "square"])
    p.add_argument("--g", required=True, help="precision grid start:stop:step")
    common(p)

    p = sub.add_parser("protocol", help="biased-input schedule table")
    p.add_argument("--n", type=int, required=True, help="number of Bobs")
    p.add_argument("--bias", type=float, default=None, help="uniform input-1 bias")
    p.add_argument("--auto-bias", action="store_true", help="largest feasible uniform bias / 2")
    p.add_argument("--limit", action="store_true", help="zero-bias limit")
    common(p)

    p = sub.add_parser("montecarlo", help="seeded chain simulation with analytic cross-check")
    p.add_argument("--scenario", required=True)
    p.add_argument("--g", type=float, default=0.8, help="first Bob's precision (1.0 = strong)")
    p.add_argument("--trials", type=float, default=1e5)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("pointer-dump", help="export one pointer wavefunction as q,phi")
    p.add_argument("--family", required=True, choices=sorted(_FAMILY_PARAM_FLAG))
    p.add_argument("--delta", help="width (square, gaussian)")
    p.add_argument("--scale", help="scale (exponential)")
    p.add_argument("--g", help="target precision (optimal, worst)")
    p.add_argument("--spacing", type=float)
    common(p)

    p = sub.add_parser("triple-scan", help="search for a triple violation with unbiased inputs")
    p.add_argument("--resolution", type=float, default=0.01)
    common(p)

    return parser


class _Terminated(BaseException):
    """A SIGTERM that main turned into an exception, as Python turns SIGINT into KeyboardInterrupt."""


def _terminate(signum, frame):
    raise _Terminated


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    previous = signal.getsignal(signal.SIGTERM) if threading.current_thread() is threading.main_thread() else None
    # an ignored SIGTERM stays ignored; a handler set outside Python cannot be restored
    handled = previous not in (signal.SIG_IGN, None)
    if handled:
        signal.signal(signal.SIGTERM, _terminate)
    try:
        args = parse_command_line(argv)
        command = globals()["cmd_" + args.command.replace("-", "_")]
        code = command(args)
        sys.stdout.flush()  # a closed pipe shows here, not at the flush on exit
        return code
    except KeyboardInterrupt:
        print("interrupted by SIGINT", file=sys.stderr)
        return 128 + signal.SIGINT
    except _Terminated:
        print("interrupted by SIGTERM", file=sys.stderr)
        return 128 + signal.SIGTERM
    except SystemExit as exc:  # argparse usage errors already printed
        return 2 if exc.code not in (0, None) else 0
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of --out - closed early: as the Python docs' "Note on SIGPIPE"
        # advises, stdout goes to devnull so the flush on exit stays silent, and
        # the exit code is a shell's for a SIGPIPE death, 128 + 13
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:
        # the type names the fault where the message alone would not ('x', or nothing)
        detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(f"internal error: {detail}", file=sys.stderr)
        return 1
    finally:
        if handled:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
