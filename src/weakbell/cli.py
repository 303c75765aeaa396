"""Command-line front end: figure and table reproductions as CSV/JSON.

Commands: tradeoff, double, protocol, montecarlo, pointer-dump,
triple-scan.  Numeric sweeps use the range syntax start:stop:step with
inclusive endpoints.  Outputs are written atomically (temp file then
rename); WEAKBELL_OUTDIR sets the default output directory.  Exit
codes: 0 success, 2 usage or validation error, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from . import bell, montecarlo, pointer, protocol
from .errors import InvalidParameterError, InvalidStateError, PhysicalityError

OUTDIR_ENV = "WEAKBELL_OUTDIR"

_VALIDATION_ERRORS = (InvalidParameterError, InvalidStateError, PhysicalityError, ValueError)

# bounds on the work one command may ask for
MAX_RANGE_POINTS = 100_000
MIN_TRIPLE_RESOLUTION = 0.002  # 499 x 499 cells
MAX_PROTOCOL_STAGES = 10_000
# ~0.2-0.4 us a trial (double scenario, one or two cores): 3-6 minutes at the cap
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


def atomic_write(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", dir=path.parent, prefix=f".{path.name}.", suffix=".tmp", delete=False
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def _emit(args, text: str, default_name: str) -> None:
    out = args.out
    if out == "-":
        sys.stdout.write(text)
        return
    path = Path(out) if out else _default_out(default_name)
    atomic_write(path, text)


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
    allowed = {k for k in vars(args) if k not in ("config", "func", "command")}
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


def cmd_tradeoff(args) -> int:
    grid = parse_range(_family_parameter(args))
    rows = pointer.tradeoff_curve(args.family, grid, grid_spacing=args.spacing)
    _emit(args, pointer.tradeoff_to_csv(args.family, rows), f"tradeoff_{args.family}.csv")
    return 0


def cmd_double(args) -> int:
    grid = parse_range(args.g)
    rows = bell.double_violation_curve(args.family, grid)
    _emit(args, bell.double_curve_to_csv(rows), f"double_{args.family}.csv")
    return 0


def cmd_protocol(args) -> int:
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
    alice = bell.tsirelson_alice()
    bob = bell.tsirelson_bob()
    if target_precision >= 1.0:
        weak = pointer.make_square(1.0)
    else:
        weak = pointer.make_optimal(target_precision)
    strong = pointer.make_square(1.0)
    if scenario == "single":
        stages = (bell.BobStage(bob[0], bob[1], weak, bias=0.5),)
    elif scenario == "double":
        stages = (
            bell.BobStage(bob[0], bob[1], weak, bias=0.5),
            bell.BobStage(bob[0], bob[1], strong, bias=0.5),
        )
    else:
        raise InvalidParameterError(f"unknown scenario {scenario!r} (choose single or double)")
    return bell.BellChainConfig(alice[0], alice[1], stages=stages)


def cmd_montecarlo(args) -> int:
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
    expected = montecarlo.analytic_joint(cfg)
    chi2 = montecarlo.chi_square_report(report.outcome_counts, expected, report.trials)
    payload = report.to_dict()
    payload["chi_square"] = chi2.to_dict()
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _emit(args, text, f"montecarlo_{args.scenario}.json")
    return 0


def cmd_pointer_dump(args) -> int:
    value = float(_family_parameter(args))
    state = pointer._FAMILY_BUILDERS[args.family](value, grid_spacing=args.spacing)
    _emit(args, pointer.samples_to_csv(state), f"pointer_{args.family}.csv")
    return 0


def cmd_triple_scan(args) -> int:
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


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--spacing", type=float, default=pointer.DEFAULT_GRID_SPACING)
    common(p)
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("double", help="CHSH of two sequential Bobs vs the first Bob's precision")
    p.add_argument("--family", default="analytic", choices=["analytic", "optimal", "gaussian", "square"])
    p.add_argument("--g", required=True, help="precision grid start:stop:step")
    common(p)
    p.set_defaults(func=cmd_double)

    p = sub.add_parser("protocol", help="biased-input schedule table")
    p.add_argument("--n", type=int, required=True, help="number of Bobs")
    p.add_argument("--bias", type=float, default=None, help="uniform input-1 bias")
    p.add_argument("--auto-bias", action="store_true", help="largest feasible uniform bias / 2")
    p.add_argument("--limit", action="store_true", help="zero-bias limit")
    common(p)
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("montecarlo", help="seeded chain simulation with analytic cross-check")
    p.add_argument("--scenario", required=True)
    p.add_argument("--g", type=float, default=0.8, help="first Bob's precision (1.0 = strong)")
    p.add_argument("--trials", type=float, default=1e5)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("pointer-dump", help="export one pointer wavefunction as q,phi")
    p.add_argument("--family", required=True, choices=sorted(_FAMILY_PARAM_FLAG))
    p.add_argument("--delta", help="width (square, gaussian)")
    p.add_argument("--scale", help="scale (exponential)")
    p.add_argument("--g", help="target precision (optimal, worst)")
    p.add_argument("--spacing", type=float, default=pointer.DEFAULT_GRID_SPACING)
    common(p)
    p.set_defaults(func=cmd_pointer_dump)

    p = sub.add_parser("triple-scan", help="search for a triple violation with unbiased inputs")
    p.add_argument("--resolution", type=float, default=0.01)
    common(p)
    p.set_defaults(func=cmd_triple_scan)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parse_command_line(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors already printed
        return 2 if exc.code not in (0, None) else 0
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
