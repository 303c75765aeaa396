"""Weak von Neumann measurements on spin-1/2 particles and sequential Bell chains.

Every public name and submodule below is imported on first access
(PEP 562), so ``import weakbell`` and ``import weakbell.cli`` load no
numpy and no compute module: a command imports only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# each public name, under the submodule that defines it
_EXPORTS = {
    "errors": ("InvalidParameterError", "InvalidStateError", "PhysicalityError"),
    "pointer": (
        "DEFAULT_GRID_SPACING",
        "MeasurementStrength",
        "PointerState",
        "make_exponential",
        "make_gaussian",
        "make_optimal",
        "make_square",
        "make_worst",
        "optimal_from_central",
        "strength_of",
        "tradeoff_curve",
    ),
    "channel": ("Direction",),
    "bell": (
        "BellChainConfig",
        "BobStage",
        "double_violation_curve",
        "singlet",
        "tsirelson_alice",
        "tsirelson_bob",
        "unbiased_triple_scan",
    ),
    "protocol": ("ProtocolSchedule", "build_schedule", "chi", "feasible_uniform_bias"),
    "montecarlo": ("EmpiricalReport", "analytic_joint", "chi_square_report", "run_chain"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook, as an eager import would
    return value


def __dir__():
    return sorted({*globals(), *__all__})
