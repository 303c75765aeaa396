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
    precision,
    quality_factor,
    strength_of,
    tradeoff_curve,
)
from .channel import Direction, distinguishability
from .bell import (
    BellChainConfig,
    BobStage,
    TripleGeometry,
    chsh,
    correlation_table,
    double_violation_curve,
    positivity_bound_scan,
    sequential_average_state,
    singlet,
    tangent_geometry,
    triple_probability,
    tsirelson_alice,
    tsirelson_bob,
    unbiased_triple_scan,
)
from .protocol import (
    ProtocolSchedule,
    build_schedule,
    chi,
    decay_ratio_sequence,
    feasible_uniform_bias,
)
from .montecarlo import (
    EmpiricalReport,
    analytic_joint,
    chi_square_report,
    run_chain,
)

__version__ = "0.1.0"
