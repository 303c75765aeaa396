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
from .channel import (
    Direction,
    decohere,
    distinguishability,
    kraus_at_reading,
    outcome_probabilities,
    projectors,
    spin_operator,
    weak_conditional,
    weak_unconditional,
)
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
    steered_state,
    tangent_geometry,
    triple_probability,
    triple_probability_oracle,
    tsirelson_alice,
    tsirelson_bob,
    unbiased_triple_scan,
)
from .protocol import (
    ProtocolSchedule,
    build_schedule,
    chi,
    chsh_lower_bound,
    decay_ratio_sequence,
    feasible_uniform_bias,
    limit_chsh,
)
from .montecarlo import (
    EmpiricalReport,
    analytic_joint,
    chi_square_report,
    run_chain,
)

__version__ = "0.1.0"
