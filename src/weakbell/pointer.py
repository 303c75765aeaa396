"""Pointer wavefunctions for dichotomic von Neumann measurements.

A measurement of a spin-1/2 observable couples the spin to a continuous
pointer whose wavefunction is phi(q).  The coupling displaces the pointer
by the eigenvalue (+1 or -1, in units where the coupling constant is 1),
so the shape of phi fixes the two figures of merit of the measurement:

    quality factor   F = integral phi(q+1) phi(q-1) dq
    precision        G = integral_{-1}^{+1} phi(q)^2 dq

F is the fraction of the post-measurement state left undisturbed; G is
the weight of the strong-measurement term in the outcome probabilities.
Every physical pointer satisfies F^2 + G^2 <= 1, and the frontier
F^2 + G^2 = 1 is attained by the "optimal" family built here: an
arbitrary central profile on (-1, 1], copied to every interval
(2n-1, 2n+1] with amplitude factor ((1-G)/(1+G))^(|n|/2).

Wavefunctions are real, have symmetric modulus, and live on a uniform
grid of spacing 1/2^k whose nodes sit at half-cell offsets.  Odd
integers and zero therefore fall on cell boundaries, never on nodes:
unit shifts are exact integer index shifts, piecewise-constant profiles
are integrated exactly, and sign digitization never sees a tie at q=0.
Integrals are uniform-weight sums h * sum(...) (composite trapezoid
with vanishing boundary terms).

Frontier pointers are built interval by interval: the envelope is one
power per interval (2n-1, 2n+1], and the samples are the row-major
outer product of the envelope with the central profile, so a row of
the reshaped sample array is one interval.  The worst pointer zeroes
rows of that array.  A grid is fixed by its even node count and its
spacing h, so the nodes inside (-1, 1) are the central 2/h and the
precision sums that slice.  No grid may have more than
MAX_POINTER_NODES nodes; builders check the count before they allocate
and refuse with a NodeCapError that names their parameter.

A unit shift of the +1/-1 copies is one whole row, so a frontier
pointer's F and G are closed forms in its rows: with central mass
c = h sum(central^2) and envelope e_n, N = c sum(e_n^2),
G = e_0^2 c / N and F = c sum(e_n e_{n+1}) / N.  The rows make the
checks the grid would (node cap, norm, symmetry, [0, 1]).  The
trade-off curves, the optimal double scan and Monte Carlo read them as
a RowStrength (F, G and the envelope) and build no grid; only a pointer
dump materialises one.  The strong stage is the one-row STRONG_ROWS.

The envelope never ends; intervals whose weight ((1-G)/(1+G))^|n|
relative to the central one falls below ENVELOPE_CUTOFF = 1e-14 are
dropped.  The gaussian is cut at 8 widths (mass < 1e-14 beyond) and the
exponential at max(40 scales, 2), and both are renormalized on the grid.

The square, gaussian and exponential profiles are even and the nodes
+-(j + 1/2) h mirror exactly, so their builders fill only the upper
half of the sample array, in place, and copy it reversed onto the lower
half; the bits are those of evaluating every node.  A gaussian or
exponential so narrow that the grid's norm would underflow to 0 is
refused before the grid is allocated, one too narrow to normalize after
the build; both refusals name the width and --spacing.  A pointer CSV
formats each position of the upper half once (its mirror is the same
text behind a minus sign) and each distinct amplitude once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, InvalidStateError, NodeCapError, PhysicalityError

DEFAULT_GRID_SPACING = 1.0 / 512
# largest grid a builder allocates: 128 MB of float64 samples per array
MAX_POINTER_NODES = 2**24
# relative envelope weight below which a frontier interval is dropped
ENVELOPE_CUTOFF = 1e-14

_NORM_TOL = 1e-9
_SYMMETRY_TOL = 1e-9
_CIRCLE_TOL = 1e-9


def _cells_per_unit(grid_spacing: float) -> int:
    """Number of grid cells per unit length; spacing must be 1/2^k."""
    if not (grid_spacing > 0 and math.isfinite(1.0 / grid_spacing)):
        raise InvalidParameterError(f"grid spacing must be positive with a finite reciprocal, got {grid_spacing}")
    cells = round(1.0 / grid_spacing)
    if cells < 2 or cells & (cells - 1) or cells * grid_spacing != 1.0:
        raise InvalidParameterError(
            f"grid spacing must be 1/2^k so unit shifts stay on the grid, got {grid_spacing}"
        )
    return cells


def _node_cap_error(nodes: int, name: str, value: float) -> NodeCapError:
    """The refusal of a grid of nodes nodes, naming the parameter value that asked for it."""
    return NodeCapError(
        f"{name} {value!r} needs a pointer grid of at least {nodes} nodes, over the cap of "
        f"{MAX_POINTER_NODES}; use a {name} nearer the strong limit",
        nodes,
    )


def _check_node_count(nodes: int, name: str, value: float) -> None:
    """Refuse a grid of more than MAX_POINTER_NODES nodes before it is allocated, naming the parameter."""
    if nodes > MAX_POINTER_NODES:
        raise _node_cap_error(nodes, name, value)


def _radius_cells(radius: float, grid_spacing: float) -> int:
    """ceil(radius / spacing), clipped so a radius past the node cap never overflows."""
    return math.ceil(min(MAX_POINTER_NODES, radius / grid_spacing))


def _symmetric_positions(radius_cells: int, grid_spacing: float) -> np.ndarray:
    """Node coordinates (j - M + 1/2) h for j = 0 .. 2M-1."""
    j = np.arange(2 * radius_cells, dtype=float)
    return (j - radius_cells + 0.5) * grid_spacing


def _upper_positions(radius_cells: int, grid_spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """A fresh array of 2M samples and its upper half, which holds the nodes (j + 1/2) h, j = 0 .. M-1.

    These are exactly the upper half of _symmetric_positions; a builder
    applies its profile to the half in place and then calls _mirror.
    """
    samples = np.empty(2 * radius_cells)
    upper = samples[radius_cells:]
    np.multiply(np.arange(0.5, radius_cells), grid_spacing, out=upper)
    return samples, upper


def _mirror(samples: np.ndarray) -> np.ndarray:
    """Copy the upper half of samples, reversed, into the lower half: phi(-q) = phi(q)."""
    half = samples.size // 2
    samples[:half] = samples[half:][::-1]
    return samples


def _nodes_below(bound: float, radius_cells: int, grid_spacing: float) -> int:
    """Number of nodes (j + 1/2) h, j = 0 .. M-1, strictly below bound."""
    count = min(radius_cells, max(0, math.ceil(bound / grid_spacing - 0.5)))
    # bound / h - 1/2 may round; settle the count on the exact node comparisons
    while count > 0 and not (count - 0.5) * grid_spacing < bound:
        count -= 1
    while count < radius_cells and (count + 0.5) * grid_spacing < bound:
        count += 1
    return count


def _check_resolved(name: str, value: float, exponent: float, divisor: float, grid_spacing: float) -> None:
    """Refuse a profile, exp(-exponent / divisor) at the nodes +-h/2, whose grid norm underflows.

    Those two nodes carry the largest sample; when the norm^2 they give,
    2 peak^2 h, underflows to 0, so does every other sample's share and
    the grid would hold no norm.  Checked in Python floats before the
    grid is allocated, so no numpy warning is raised.
    """
    try:
        peak = math.exp(-exponent / divisor)
    except ZeroDivisionError:
        peak = 0.0
    if not 2.0 * (peak * peak) * grid_spacing > 0.0:
        raise _too_narrow(name, value, grid_spacing, "the pointer's norm underflows to 0")


def _too_narrow(name: str, value: float, h: float, why: str) -> InvalidParameterError:
    return InvalidParameterError(f"{name} {value!r} is too small for grid spacing {h!r}: {why}; use a finer --spacing")


def _mirrored_state(name: str, value: float, samples: np.ndarray, grid_spacing: float) -> PointerState:
    """Mirror and normalize a builder's upper half, naming the width where the norm^2 is too subnormal."""
    try:
        return _normalized_state(_mirror(samples), grid_spacing)
    except InvalidStateError:
        raise _too_narrow(name, value, grid_spacing, "the pointer's norm is too small to normalize") from None


@dataclass(frozen=True)
class PointerState:
    """Real pointer wavefunction sampled on a uniform symmetric grid.

    Node j of n sits at (j - n/2 + 1/2) * grid_spacing.  Invariants checked
    at construction: real 1-D samples of even count n, unit norm
    (sum samples^2 * spacing = 1 within 1e-9) and symmetric modulus.
    The samples are held read-only.  A read-only float array that owns
    its memory is kept as given (the builders pass their own arrays so);
    any other array is copied first.
    """

    samples: np.ndarray
    grid_spacing: float

    def __post_init__(self):
        samples = np.asarray(self.samples)
        if np.iscomplexobj(samples):
            raise InvalidStateError("pointer amplitudes must be real")
        if samples.flags.writeable or not samples.flags.owndata or samples.dtype != np.float64:
            samples = samples.astype(float, copy=True)
        # an odd count would put a node on q = 0, where sign digitization ties
        if samples.ndim != 1 or samples.size < 2 or samples.size % 2:
            raise InvalidStateError(f"pointer samples must be a 1-D array of even length, got {samples.shape}")
        _cells_per_unit(self.grid_spacing)
        # einsum, not the BLAS np.dot: the threaded BLAS call left the
        # next builds several ms slower per pointer on two cores
        norm = float(np.einsum("i,i->", samples, samples) * self.grid_spacing)
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise InvalidStateError(f"pointer not normalized on the grid: norm^2 = {norm!r}")
        # |phi| is symmetric when each node of the first half matches its mirror
        half = samples.size // 2
        gap = np.abs(samples[:half])
        gap -= np.abs(samples[::-1][:half])
        asym = float(np.max(np.abs(gap, out=gap)))
        if not asym <= _SYMMETRY_TOL:
            raise InvalidStateError(f"pointer modulus not symmetric: max asymmetry {asym:.3e}")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def grid_origin(self) -> float:
        """Position of node 0."""
        return -(self.samples.size / 2 - 0.5) * self.grid_spacing

    @property
    def positions(self) -> np.ndarray:
        return self.grid_origin + np.arange(self.samples.size) * self.grid_spacing


@dataclass(frozen=True)
class MeasurementStrength:
    """Pair (quality factor, precision) with the unit-circle constraint."""

    quality_factor: float
    precision: float

    def __post_init__(self):
        F, G = self.quality_factor, self.precision
        if not (-1e-12 <= F <= 1.0 + 1e-12 and -1e-12 <= G <= 1.0 + 1e-12):
            raise PhysicalityError(f"quality factor and precision must lie in [0, 1], got ({F}, {G})")
        if F * F + G * G > 1.0 + _CIRCLE_TOL:
            raise PhysicalityError(f"unphysical strength: F^2 + G^2 = {F * F + G * G!r} > 1")

    @classmethod
    def optimal(cls, precision: float) -> "MeasurementStrength":
        """Frontier strength (sqrt(1 - G^2), G) for a given precision."""
        if not 0.0 <= precision <= 1.0:
            raise InvalidParameterError(f"precision must lie in [0, 1], got {precision}")
        return cls(math.sqrt(max(0.0, (1.0 - precision) * (1.0 + precision))), precision)


@dataclass(frozen=True)
class RowStrength(MeasurementStrength):
    """The strength of a pointer that scales one profile on every interval, with the scale factors.

    The pointer is a central profile on (-1, 1] copied to each interval
    (2n-1, 2n+1], n = i - N, with amplitude factor envelope[i] (2N+1
    factors, held read-only); F and G are the pointer's own.
    """

    envelope: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        envelope = np.array(self.envelope, dtype=float)
        envelope.flags.writeable = False
        object.__setattr__(self, "envelope", envelope)


# a strong (projective) measurement: the flat pointer on (-1, 1], one row
STRONG_ROWS = RowStrength(0.0, 1.0, np.ones(1))


def _normalized_state(samples: np.ndarray, grid_spacing: float) -> PointerState:
    """Normalize a builder's own fresh samples in place and freeze them into a state."""
    norm = math.sqrt(float(np.sum(samples * samples)) * grid_spacing)
    if norm == 0.0:
        raise InvalidStateError("pointer has zero norm")
    samples /= norm
    samples.flags.writeable = False
    return PointerState(samples, grid_spacing)


def make_square(half_width: float, grid_spacing: float = DEFAULT_GRID_SPACING) -> PointerState:
    """Flat pointer 1/sqrt(2 half_width) on (-half_width, +half_width).

    Width at most 1 gives a strong measurement (F=0, G=1); beyond that
    the pointer obeys G = 1 - F: it measures strongly with probability G
    and returns a coin flip otherwise.
    """
    if not half_width > 0:
        raise InvalidParameterError(f"half width must be positive, got {half_width}")
    cells = _cells_per_unit(grid_spacing)
    if grid_spacing > half_width / 50:
        raise InvalidParameterError(
            f"grid spacing {grid_spacing} too coarse for half width {half_width} (need <= width/50)"
        )
    radius_cells = _radius_cells(half_width, grid_spacing) + cells
    _check_node_count(2 * radius_cells, "square half width", half_width)
    inside = _nodes_below(half_width, radius_cells, grid_spacing)
    samples = np.zeros(2 * radius_cells)
    samples[radius_cells - inside : radius_cells + inside] = 1.0
    return _normalized_state(samples, grid_spacing)


def make_gaussian(width: float, grid_spacing: float = DEFAULT_GRID_SPACING) -> PointerState:
    """Gaussian pointer whose probability density phi^2 is normal(0, width^2).

    The width convention is the standard deviation of phi^2.  The tail is
    truncated at 8 width (mass < 1e-14 beyond) and the state renormalized
    on the grid.
    """
    if not width > 0:
        raise InvalidParameterError(f"width must be positive, got {width}")
    _cells_per_unit(grid_spacing)
    radius_cells = _radius_cells(8.0 * width, grid_spacing)
    _check_node_count(2 * radius_cells, "gaussian width", width)
    spread = 4.0 * width * width
    nearest = 0.5 * grid_spacing
    _check_resolved("gaussian width", width, nearest * nearest, spread, grid_spacing)
    samples, upper = _upper_positions(radius_cells, grid_spacing)
    upper *= upper
    upper /= -spread
    np.exp(upper, out=upper)
    return _mirrored_state("gaussian width", width, samples, grid_spacing)


def make_exponential(scale: float, grid_spacing: float = DEFAULT_GRID_SPACING) -> PointerState:
    """Pointer with phi^2 proportional to exp(-|q|/scale), truncated at max(40 scale, 2) and renormalized."""
    if not scale > 0:
        raise InvalidParameterError(f"scale must be positive, got {scale}")
    _cells_per_unit(grid_spacing)
    radius_cells = _radius_cells(max(40.0 * scale, 2.0), grid_spacing)
    _check_node_count(2 * radius_cells, "exponential scale", scale)
    _check_resolved("exponential scale", scale, 0.5 * grid_spacing, 2.0 * scale, grid_spacing)
    samples, upper = _upper_positions(radius_cells, grid_spacing)
    upper /= -(2.0 * scale)
    np.exp(upper, out=upper)
    return _mirrored_state("exponential scale", scale, samples, grid_spacing)


def _envelope_intervals(target_precision: float, cells: int) -> int:
    """Number N of intervals kept on each side of the central one, within the node cap.

    Intervals whose envelope weight ((1-G)/(1+G))^|n| relative to the
    central interval drops below ENVELOPE_CUTOFF are dropped.
    """
    if not 0.0 < target_precision < 1.0:
        raise InvalidParameterError(f"target precision must lie in (0, 1), got {target_precision}")
    ratio = (1.0 - target_precision) / (1.0 + target_precision)
    log_ratio = math.log(ratio)  # 0.0 once G is below half an ulp of 1
    span = math.log(ENVELOPE_CUTOFF) / log_ratio if log_ratio < 0.0 else math.inf
    n_intervals = max(1, math.ceil(min(MAX_POINTER_NODES, span)))
    _check_node_count(2 * (2 * n_intervals + 1) * cells, "target precision", target_precision)
    return n_intervals


def _frontier_rows(
    central_samples: np.ndarray, target_precision: float, grid_spacing: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of a frontier pointer: the scaled central profile and the envelope.

    The central profile is rescaled so its mass is the target precision;
    envelope[i] = ((1-G)/(1+G))^(|n|/2) is the amplitude factor of
    interval n = i - N.  The grid these rows generate is checked against
    the node cap, so the rows are refused exactly where the grid is.
    """
    cells = _cells_per_unit(grid_spacing)
    n_intervals = _envelope_intervals(target_precision, cells)
    central = np.asarray(central_samples, dtype=float)
    if central.shape != (2 * cells,):
        raise InvalidParameterError(
            f"central profile must have {2 * cells} samples for spacing {grid_spacing}"
        )
    mass = float(np.sum(central * central)) * grid_spacing
    if not (math.isfinite(mass) and mass > 0.0):
        raise InvalidParameterError(f"central profile mass must be finite and positive, got {mass!r}")
    central = central * math.sqrt(target_precision / mass)

    ratio = (1.0 - target_precision) / (1.0 + target_precision)
    n = np.arange(-n_intervals, n_intervals + 1, dtype=float)
    envelope = np.power(ratio, np.abs(n) / 2.0)
    return central, envelope


def _odd_rows(n_rows: int) -> slice:
    """Rows i of a (2N+1)-row frontier whose interval n = i - N is odd."""
    return slice((n_rows // 2 + 1) % 2, None, 2)


def optimal_from_central(
    central_samples: np.ndarray, target_precision: float, grid_spacing: float = DEFAULT_GRID_SPACING
) -> PointerState:
    """Frontier pointer generated by an explicit central profile.

    central_samples are amplitudes on the 2/h nodes of the central
    interval (-1, 1]; they are rescaled so their mass is the target
    precision, then copied to interval n with amplitude factor
    ((1-G)/(1+G))^(|n|/2).  Intervals whose envelope weight (relative to
    the central interval) drops below ENVELOPE_CUTOFF are dropped, and
    the state is renormalized.  The resulting quality factor is
    sqrt(1 - G^2) for any admissible profile.
    """
    central, envelope = _frontier_rows(central_samples, target_precision, grid_spacing)
    # the grid radius is an odd number of units, so row n of the
    # (2N+1, 2/h) sample array is the interval (2n-1, 2n+1]
    samples = np.empty(envelope.size * central.size)
    np.multiply(central[None, :], envelope[:, None], out=samples.reshape(envelope.size, central.size))
    return _normalized_state(samples, grid_spacing)


def _central_profile(profile: str, target_precision: float, grid_spacing: float) -> np.ndarray:
    """make_optimal's central profile, once the grid it generates is known to fit the cap."""
    cells = _cells_per_unit(grid_spacing)
    _envelope_intervals(target_precision, cells)  # size the grid before building
    x = _symmetric_positions(cells, grid_spacing)
    if profile == "flat":
        return np.ones_like(x)
    if profile == "smooth_bump":
        return np.exp(-1.0 / (1.0 - x * x))
    raise InvalidParameterError(f"unknown central profile {profile!r}")


def make_optimal(
    target_precision: float, profile: str = "flat", grid_spacing: float = DEFAULT_GRID_SPACING
) -> PointerState:
    """Frontier pointer with a flat or smooth-bump central profile.

    profile "flat" uses a constant on (-1, 1]; "smooth_bump" uses
    exp(-1/(1-q^2)), which vanishes with all derivatives at the odd
    integers and yields an infinitely differentiable wavefunction.
    """
    central = _central_profile(profile, target_precision, grid_spacing)
    return optimal_from_central(central, target_precision, grid_spacing)


def make_worst(target_precision: float, grid_spacing: float = DEFAULT_GRID_SPACING) -> PointerState:
    """Maximally disturbing pointer: frontier state with alternate intervals zeroed.

    Zeroing every odd interval makes the +1/-1 displaced copies disjoint,
    so the quality factor vanishes identically.  The precision of the
    renormalized state is larger than the generating target.
    """
    base = make_optimal(target_precision, "flat", grid_spacing)
    samples = base.samples.copy()
    rows = samples.reshape(-1, 2 * _cells_per_unit(grid_spacing))
    rows[_odd_rows(rows.shape[0])] = 0.0
    return _normalized_state(samples, grid_spacing)


def _rows_strength(central: np.ndarray, envelope: np.ndarray, grid_spacing: float) -> tuple[float, float]:
    """(F, G) of the normalized frontier pointer with these rows, by the closed forms above.

    The checks are those of the grid path: a finite non-zero norm, a
    symmetric modulus (the central row, whose envelope factor is the
    largest, bounds the asymmetry of every row) and F, G in [0, 1].
    """
    mass = grid_spacing * float(np.sum(central * central))
    norm = mass * float(np.sum(envelope * envelope))
    if not (math.isfinite(norm) and norm > 0.0):
        raise InvalidStateError(f"pointer norm^2 must be finite and non-zero, got {norm!r}")
    row = np.abs(central / math.sqrt(norm))
    asym = float(np.max(np.abs(row - row[::-1])))
    if not asym <= _SYMMETRY_TOL:
        raise InvalidStateError(f"pointer modulus not symmetric: max asymmetry {asym:.3e}")
    centre = float(envelope[envelope.size // 2])
    quality = mass * float(np.sum(envelope[1:] * envelope[:-1])) / norm
    return _clamp_unit(quality, "quality factor"), _clamp_unit(centre * centre * mass / norm, "precision")


def _frontier_strength(
    target_precision: float, *, worst: bool = False, grid_spacing: float = DEFAULT_GRID_SPACING
) -> RowStrength:
    """The rows of make_optimal(target) (flat profile), or of make_worst(target), with their (F, G).

    Refuses exactly the inputs the builder refuses, the node cap included.
    """
    central = _central_profile("flat", target_precision, grid_spacing)
    central, envelope = _frontier_rows(central, target_precision, grid_spacing)
    if worst:
        envelope[_odd_rows(envelope.size)] = 0.0
    return RowStrength(*_rows_strength(central, envelope, grid_spacing), envelope)


def quality_factor(state: PointerState) -> float:
    """Overlap of the +1 and -1 displaced copies, by grid quadrature."""
    cells = _cells_per_unit(state.grid_spacing)
    shift = 2 * cells
    phi = state.samples
    if phi.size <= shift:
        return 0.0
    value = float(np.sum(phi[shift:] * phi[:-shift]) * state.grid_spacing)
    return _clamp_unit(value, "quality factor")


def precision(state: PointerState) -> float:
    """Pointer mass on the central interval (-1, +1), by grid quadrature."""
    cells = _cells_per_unit(state.grid_spacing)
    # the nodes with -1 < q < 1 are the central 2/h, clipped to the grid
    half = state.samples.size // 2
    run = state.samples[max(0, half - cells) : half + cells]
    value = float(np.sum(run**2) * state.grid_spacing)
    return _clamp_unit(value, "precision")


def _clamp_unit(value: float, name: str) -> float:
    if value < -_CIRCLE_TOL or value > 1.0 + _CIRCLE_TOL:
        raise InvalidStateError(f"{name} {value!r} outside [0, 1] beyond tolerance")
    return min(1.0, max(0.0, value))


def strength_of(state: PointerState) -> MeasurementStrength:
    """Measure (quality factor, precision) of a pointer by quadrature."""
    return MeasurementStrength(quality_factor(state), precision(state))


_FAMILY_BUILDERS = {
    "square": make_square,
    "gaussian": make_gaussian,
    "exponential": make_exponential,
    "optimal": make_optimal,
    "worst": make_worst,
}


def tradeoff_curve(
    family: str,
    parameters,
    grid_spacing: float = DEFAULT_GRID_SPACING,
) -> list[tuple[float, float, float]]:
    """Rows (parameter, F, G) for one pointer family.

    The parameter is the half width (square), width (gaussian), scale
    (exponential) or target precision (optimal, worst).  The frontier
    families are read from their rows; the others are built and
    integrated on the grid.
    """
    if family not in _FAMILY_BUILDERS:
        raise InvalidParameterError(f"unknown pointer family {family!r}")
    parameters = [float(p) for p in parameters]
    if not parameters:
        raise InvalidParameterError("parameter grid is empty")
    rows = []
    for value in parameters:
        if family in ("optimal", "worst"):
            strength = _frontier_strength(value, worst=family == "worst", grid_spacing=grid_spacing)
            fq, gp = strength.quality_factor, strength.precision
        else:
            state = _FAMILY_BUILDERS[family](value, grid_spacing=grid_spacing)
            fq, gp = quality_factor(state), precision(state)
        rows.append((value, fq, gp))
    return rows


TRADEOFF_CSV_HEADER = "family,parameter,F,G"


def tradeoff_to_csv(family: str, rows) -> str:
    lines = [TRADEOFF_CSV_HEADER]
    for parameter, fq, gp in rows:
        lines.append(f"{family},{parameter!r},{fq!r},{gp!r}")
    return "\n".join(lines) + "\n"


POINTER_CSV_HEADER = "q,phi"
# lines of pointer CSV text joined at a time
_CSV_BLOCK_LINES = 2**14


def samples_to_csv(state: PointerState) -> str:
    """Lines q,phi of every node, each float written as its repr.

    Node M + j of 2M sits at q_j = (j + 1/2) h and node M - 1 - j at
    exactly -q_j (the grid never holds 0), so each q_j is formatted once
    and its mirror written as "-" + repr(q_j).  Each distinct amplitude
    bit pattern (0.0 and -0.0 apart) is formatted once; the amplitudes
    themselves are not mirrored, as a state need only be symmetric in
    modulus and within 1e-9.  The text is joined from blocks of lines,
    never from one string per line.
    """
    samples = state.samples
    half = samples.size // 2
    bits, which = np.unique(samples.view(np.int64), return_inverse=True)
    amps = [repr(a) for a in bits.view(np.float64).tolist()]
    lower, upper = [], []
    for start in range(0, half, _CSV_BLOCK_LINES):
        stop = min(start + _CSV_BLOCK_LINES, half)
        nodes = np.arange(half + start, half + stop)
        qs = [repr(q) for q in (state.grid_origin + nodes * state.grid_spacing).tolist()]
        up = which[half + start : half + stop].tolist()
        upper.append("".join([f"{q},{amps[k]}\n" for q, k in zip(qs, up)]))
        # the nodes M-1-j of this block, in ascending order
        down = which[half - stop : half - start].tolist()
        lower.append("".join([f"-{q},{amps[k]}\n" for q, k in zip(reversed(qs), down)]))
    del amps, which  # freed before the join doubles the text
    return "".join([POINTER_CSV_HEADER + "\n", *reversed(lower), *upper])
