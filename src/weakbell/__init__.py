"""Weak von Neumann measurements on spin-1/2 particles and sequential Bell chains."""

from .errors import InvalidParameterError, InvalidStateError, PhysicalityError
from .pointer import (
    DEFAULT_GRID_SPACING,
    MeasurementStrength,
    PointerState,
    make_exponential,
    make_gaussian,
    make_optimal,
    make_square,
    make_worst,
    optimal_from_central,
    strength_of,
    tradeoff_curve,
)
from .channel import Direction
from .bell import (
    BellChainConfig,
    BobStage,
    double_violation_curve,
    singlet,
    tsirelson_alice,
    tsirelson_bob,
    unbiased_triple_scan,
)
from .protocol import (
    ProtocolSchedule,
    build_schedule,
    chi,
    feasible_uniform_bias,
)
from .montecarlo import (
    EmpiricalReport,
    analytic_joint,
    chi_square_report,
    run_chain,
)

__version__ = "0.1.0"
