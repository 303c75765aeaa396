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
and refuse with a NodeCapError that names their parameter and carries
the refused value's index in its sweep, so a caller that maps its own
values to that parameter (double's target precisions) names its own.

No command but a pointer dump builds a grid: _family_strengths gives
the (F, G) of the grid a family's builder would build, as two arrays
over a whole array of parameter values, from a few sums that need
none.  Each of the builder's checks is a mask over a 1-D array of
values, so it refuses the first value in grid order that the builder
refuses, with the same error.  There is one path: a builder runs the
same checks on the one-element array [value] before it allocates, and
_family_strength is the closed form over [value].  The arithmetic
is numpy's over the whole array in the order of the one-value
formulas, and exp, expm1, log and erfc are math's, element by element,
so each F and G has the bits of that value's own evaluation.  A unit
shift of the +1/-1 copies is one whole row, so a frontier pointer's F
and G are sums over its envelope e_n: the central mass cancels and
e_0 = 1, so G = 1 / sum(e_n^2) and F = sum(e_n e_{n+1}) / sum(e_n^2)
whatever the profile, and both sums are geometric.  The square's F and
G are ratios of node counts.  The gaussian's G sums the central 2/h
nodes, and its F is exp(-1/2w^2) times the norm sum less the outermost
1/h nodes a side; the norm sum is a Poisson sum less an erfc tail.
Every run of gaussian nodes is summed one way: the runs of one length,
over all the widths, are the rows of one array.  The exponential's
sums are geometric.  channel, bell and montecarlo take only a
MeasurementStrength, never a PointerState.  strength_of integrates a
built grid, as for an optimal_from_central pointer with a custom
profile; it is the one reading of a grid's F and G.

Every MeasurementStrength and every (F, G) of a closed-form sweep
passes one gate, _unit_pairs, once: F and G within 1e-9 of [0, 1] are
clamped to it, and then F^2 + G^2 <= 1 + 1e-14.  MeasurementStrength
runs it on its raw pair, _family_strengths and double's analytic
targets on their arrays.  Closed forms and built grids miss the circle
by ~1e-15 at most, and a pair past it by e makes joint cells of -e/32
at worst, inside montecarlo's ZERO_MASS.

The envelope never ends; intervals whose weight ((1-G)/(1+G))^|n|
relative to the central one falls below ENVELOPE_CUTOFF = 1e-14 are
dropped.  The gaussian is cut at 8 widths (mass < 1e-14 beyond) and the
exponential at max(40 scales, 2), and both are renormalized on the grid.

The square, gaussian and exponential profiles are even and the nodes
+-(j + 1/2) h mirror exactly, so their builders fill only the upper
half of the sample array, in place, and copy it reversed onto the lower
half; the bits are those of evaluating every node.  A gaussian or
exponential so narrow that the grid's norm would underflow to 0, or be
too small to normalize, is refused before the grid is allocated; both
refusals name the width and --spacing.  Builders normalize in place
and square, sum and compare a block of nodes at a time (in np.sum's
own pairwise order), so the grid is the only grid-sized array they
hold.  A pointer CSV writes its positions from the 2^k fraction texts
of one unit, built once with integer arithmetic wherever they equal
repr (see samples_to_csv), one text block a unit, never joined: a unit
whose amplitudes share one bit pattern, as every unit of a flat
frontier pointer does, is one join of its texts around that amplitude's
repr, and each other unit formats each distinct amplitude among its own
nodes once, so a dump of any family holds its grid and one unit's text.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvalidStateError, NodeCapError, PhysicalityError

DEFAULT_GRID_SPACING = 1.0 / 512
# largest grid a builder allocates: 128 MB of float64 samples per array
MAX_POINTER_NODES = 2**24
# relative envelope weight below which a frontier interval is dropped
ENVELOPE_CUTOFF = 1e-14

_NORM_TOL = 1e-9
_SYMMETRY_TOL = 1e-9
# the (F, G) gate: F or G clamped within this of [0, 1], then F^2 + G^2 <= 1 + _CIRCLE_TOL
_RANGE_TOL = 1e-9
_CIRCLE_TOL = 1e-14
# nodes squared, summed or compared at a time, so no whole-grid temporary is made
_BLOCK_NODES = 2**16
# below this largest sample^2 a grid's only non-zero samples are the pair at +-h/2
_TINY_SQUARE = 2.0**-900


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


def _node_cap_error(nodes: int, name: str, value: float, index: int) -> NodeCapError:
    """The refusal of a grid of nodes nodes, naming the parameter value that asked for it, at index in its sweep."""
    article = "an" if name[0] in "aeiou" else "a"
    return NodeCapError(
        f"{name} {value!r} needs a pointer grid of at least {nodes} nodes, over the cap of "
        f"{MAX_POINTER_NODES}; use {article} {name} nearer the strong limit",
        nodes,
        index,
    )


def _first_refused(checks) -> None:
    """Raise the error of the first check that refuses the first refused value in grid order.

    checks are (refused, error) pairs in the order one value's checks
    run: refused is a 1-D boolean mask over the values, and error(k)
    makes value k's exception.  The masks are folded into one, whose
    first refused index is read once.
    """
    refused = checks[0][0]
    for mask, _ in checks[1:]:
        refused = refused | mask
    if refused.any():
        k = int(refused.argmax())
        raise next(error for mask, error in checks if mask[k])(k)


def _positive_cells(name: str, values: np.ndarray, grid_spacing: float) -> tuple[tuple, int]:
    """A width's first two checks, positive and then a spacing of 1/2^k: its refusal pair, and the cells per unit.

    A bad spacing refuses every value, so it refuses the first one, by
    whichever of the two checks comes first.
    """
    check = (~(values > 0), lambda k: InvalidParameterError(f"{name} must be positive, got {values.item(k)}"))
    try:
        return check, _cells_per_unit(grid_spacing)
    except InvalidParameterError:
        _first_refused([(check[0][:1], check[1])])
        raise


def _cap_check(name: str, values: np.ndarray, over: np.ndarray, nodes) -> tuple:
    """Refusal pair of the values over the node cap; value k needs nodes(k)."""
    return over, lambda k: _node_cap_error(nodes(k), name, values.item(k), k)


def _each(function, values: np.ndarray) -> np.ndarray:
    """math's function of each value of a 1-D array, as an array: numpy's exp, expm1 and log miss its bits."""
    return np.fromiter(map(function, values.tolist()), float, count=values.size)


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


def _resolution_checks(name: str, values: np.ndarray, exponent: np.ndarray, grid_spacing: float):
    """Refusal pairs of profiles whose largest sample, at the nodes +-h/2, is exp(exponent) <= 1.

    The first refuses a grid whose norm underflows: when the norm^2 of
    those two nodes, 2 peak^2 h, is 0, so is every other sample's share
    (peak from math.exp).  The second refuses where the builder would
    fail to normalize its grid: where peak^2 is below _TINY_SQUARE, the
    next samples (its cube for the exponential, its ninth power for the
    gaussian) are 0, so the grid's norm^2 is 2 peak^2 h, and where that
    is a subnormal with too few bits, the normalized pair misses unit
    norm by more than PointerState allows.  This repeats the builder's
    arithmetic on the pair alone, with its own np.exp, so a builder
    refuses such a width before it allocates.
    """
    def too_narrow(why):
        return lambda k: _too_narrow(name, values.item(k), grid_spacing, why)

    peak = _each(math.exp, exponent)
    underflow = ~(2.0 * (peak * peak) * grid_spacing > 0.0)
    peak = np.exp(exponent)
    square = peak * peak
    with np.errstate(all="ignore"):  # a zero norm leaves share inf or nan: refused
        share = peak / np.sqrt((square + square) * grid_spacing)
        normalized = np.abs((share * share + share * share) * grid_spacing - 1.0) <= _NORM_TOL
    return [
        (underflow, too_narrow("the pointer's norm underflows to 0")),
        ((square < _TINY_SQUARE) & ~normalized, too_narrow("the pointer's norm is too small to normalize")),
    ]


def _too_narrow(name: str, value: float, h: float, why: str) -> InvalidParameterError:
    return InvalidParameterError(f"{name} {value!r} is too small for grid spacing {h!r}: {why}; use a finer --spacing")


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
        mirror = samples[::-1]
        gaps = []
        for start in range(0, half, _BLOCK_NODES):
            stop = min(half, start + _BLOCK_NODES)
            gap = np.abs(samples[start:stop])
            gap -= np.abs(mirror[start:stop])
            gaps.append(np.max(np.abs(gap, out=gap)))
        asym = float(np.max(gaps))
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
    """Pair (quality factor, precision) through the (F, G) gate, _unit_pairs, held as its clamped floats."""

    quality_factor: float
    precision: float

    def __post_init__(self):
        quality, prec = _unit_pairs(*(np.array([v], dtype=float) for v in (self.quality_factor, self.precision)))
        object.__setattr__(self, "quality_factor", quality.item())
        object.__setattr__(self, "precision", prec.item())


def _sum_of_squares(samples: np.ndarray) -> float:
    """float(np.sum(samples * samples)), squaring at most _BLOCK_NODES samples at a time.

    np.sum adds a contiguous float64 array pairwise: it splits it at
    half its length rounded down to a multiple of 8 until a part holds
    at most 128 values.  Splitting the same way down to blocks of
    _BLOCK_NODES and letting np.sum add each block's squares gives the
    same bits with no temporary as large as the grid.
    """
    if samples.size <= _BLOCK_NODES:
        return float(np.sum(samples * samples))
    split = samples.size // 2
    split -= split % 8
    return _sum_of_squares(samples[:split]) + _sum_of_squares(samples[split:])


def _normalize(samples: np.ndarray, grid_spacing: float) -> np.ndarray:
    """Divide a builder's own fresh samples by their grid norm, in place."""
    norm = math.sqrt(_sum_of_squares(samples) * grid_spacing)
    if norm == 0.0:
        raise InvalidStateError("pointer has zero norm")
    samples /= norm
    return samples


def _normalized_state(samples: np.ndarray, grid_spacing: float) -> PointerState:
    """Normalize a builder's own fresh samples in place and freeze them into a state."""
    samples = _normalize(samples, grid_spacing)
    samples.flags.writeable = False
    return PointerState(samples, grid_spacing)


def _unit_pairs(quality: np.ndarray, prec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (F, G) gate: arrays of F and G clamped to [0, 1], refusing the first refused pair in grid order.

    An F, then a G, that is nan or more than _RANGE_TOL outside [0, 1] is
    refused with InvalidStateError; then a clamped pair with
    F^2 + G^2 > 1 + _CIRCLE_TOL with PhysicalityError.  MeasurementStrength
    runs it on its one pair, and the closed forms and double's analytic
    targets on their arrays.
    """
    pairs = np.array([quality, prec])
    outside = ~((pairs >= -_RANGE_TOL) & (pairs <= 1.0 + _RANGE_TOL))
    # min(1, max(0, v)) in Python floats: -0.0 clamps to 0.0
    pairs = np.minimum(np.where(pairs > 0.0, pairs, 0.0), 1.0)
    squares = pairs * pairs
    circle = squares[0] + squares[1]
    unphysical = circle > 1.0 + _CIRCLE_TOL
    outside_unit = "{} {!r} outside [0, 1] beyond tolerance"
    _first_refused([
        (outside[0], lambda k: InvalidStateError(outside_unit.format("quality factor", quality.item(k)))),
        (outside[1], lambda k: InvalidStateError(outside_unit.format("precision", prec.item(k)))),
        (unphysical, lambda k: PhysicalityError(f"unphysical strength: F^2 + G^2 = {circle.item(k)!r} > 1")),
    ])
    return pairs[0], pairs[1]


def _square_grid(half_widths: np.ndarray, grid_spacing: float):
    """make_square's checks on each half width w; its cells per unit, and each grid's nodes a side, all and inside w.

    The nodes (j + 1/2) h below w are the ceil(w/h - 1/2): w/h is exact
    on a grid of spacing 1/2^k, and below the node cap so is w/h - 1/2.
    """
    positivity, cells = _positive_cells("half width", half_widths, grid_spacing)
    with np.errstate(all="ignore"):  # a refused width may overflow or be nan
        reach = np.ceil(np.minimum(MAX_POINTER_NODES, half_widths / grid_spacing))
        coarse = grid_spacing > half_widths / 50
    too_coarse = "grid spacing {} too coarse for half width {} (need <= width/50)"
    over = reach > MAX_POINTER_NODES / 2 - cells
    _first_refused([
        positivity,
        (coarse, lambda k: InvalidParameterError(too_coarse.format(grid_spacing, half_widths.item(k)))),
        _cap_check("square half width", half_widths, over, lambda k: 2 * (int(reach.item(k)) + cells)),
    ])
    return cells, reach + cells, np.ceil(half_widths / grid_spacing - 0.5)


def make_square(half_width: float, grid_spacing: float = DEFAULT_GRID_SPACING) -> PointerState:
    """Flat pointer 1/sqrt(2 half_width) on (-half_width, +half_width).

    Width at most 1 gives a strong measurement (F=0, G=1); beyond that
    the pointer obeys G = 1 - F: it measures strongly with probability G
    and returns a coin flip otherwise.
    """
    _, (radius,), (inside,) = _square_grid(np.array([half_width], dtype=float), grid_spacing)
    radius_cells, inside = int(radius), int(inside)
    samples = np.zeros(2 * radius_cells)
    samples[radius_cells - inside : radius_cells + inside] = 1.0
    return _normalized_state(samples, grid_spacing)


def _square_strengths(half_widths: np.ndarray, grid_spacing: float):
    """make_square's (F, G) as node counts.

    Its n equal samples a side put min(n, 1/h) a side in (-1, 1) and
    make max(0, n - 1/h) pairs 2 apart a side.
    """
    cells, _, inside = _square_grid(half_widths, grid_spacing)
    return np.maximum(inside - cells, 0.0) / inside, np.minimum(inside, cells) / inside


def _gaussian_grid(widths: np.ndarray, grid_spacing: float):
    """make_gaussian's checks on each width, before it allocates; cells, nodes a side."""
    positivity, cells = _positive_cells("width", widths, grid_spacing)
    nearest = 0.5 * grid_spacing
    with np.errstate(all="ignore"):  # a refused width may overflow or be nan
        radius = np.ceil(np.minimum(MAX_POINTER_NODES, 8.0 * widths / grid_spacing))
        exponent = -(nearest * nearest) / (4.0 * widths * widths)
    over = radius > MAX_POINTER_NODES / 2
    _first_refused([
        positivity,
        _cap_check("gaussian width", widths, over, lambda k: 2 * int(radius.item(k))),
        *_resolution_checks("gaussian width", widths, exponent, grid_spacing),
    ])
    return cells, radius


def make_gaussian(width: float, grid_spacing: float = DEFAULT_GRID_SPACING) -> PointerState:
    """Gaussian pointer whose probability density phi^2 is normal(0, width^2).

    The width convention is the standard deviation of phi^2.  The tail is
    truncated at 8 width (mass < 1e-14 beyond) and the state renormalized
    on the grid.
    """
    _, (radius,) = _gaussian_grid(np.array([width], dtype=float), grid_spacing)
    samples, upper = _upper_positions(int(radius), grid_spacing)
    upper *= upper
    upper /= -(4.0 * width * width)
    np.exp(upper, out=upper)
    return _normalized_state(_mirror(samples), grid_spacing)


def _gaussian_row_sums(spreads: np.ndarray, starts, lengths: np.ndarray, grid_spacing: float) -> np.ndarray:
    """Sum of exp(-q^2 / spread) over the nodes q = (start + j + 1/2) h, j < length, for each (spread, start, length).

    starts is an array or one start for every run; a run of length 0
    sums to 0.  Each run's nodes are summed _BLOCK_NODES at a time and
    its block sums added in order.  The runs of one length are the rows
    of one array, at most _BLOCK_NODES nodes a call: np.sum adds each
    contiguous row pairwise, as it adds a 1-D array, and start + j + 1/2
    is exact, so a run's sum has the same bits whichever rows share its
    array.
    """
    starts = np.broadcast_to(starts, spreads.shape)
    sums = np.zeros(spreads.size)
    # each positive length once, where the sorted lengths step up (np.unique would import numpy.ma, ~1 MB)
    ordered = np.sort(lengths)
    for length in ordered[np.diff(ordered, prepend=0.0) > 0].astype(int).tolist():
        same = np.flatnonzero(lengths == length)
        chunk = max(1, _BLOCK_NODES // length)
        for first in range(0, same.size, chunk):
            rows = same[first : first + chunk]
            for lo in range(0, length, _BLOCK_NODES):
                q = starts[rows, None] + np.arange(lo + 0.5, min(length, lo + _BLOCK_NODES))
                q *= grid_spacing
                q *= q
                q /= -spreads[rows, None]
                sums[rows] += np.exp(q, out=q).sum(axis=1)
    return sums


def _gaussian_strengths(widths: np.ndarray, grid_spacing: float):
    """make_gaussian's (F, G) for each width, from sums of phi^2 = exp(-q^2 / 2w^2) over at most 1/h nodes a side.

    G sums the central 2/h nodes.  A pair of nodes 2 apart with midpoint
    p has phi(p-1) phi(p+1) = exp(-1/2w^2) phi(p)^2, so F is exp(-1/2w^2)
    times the grid's sum less its outermost 1/h nodes a side.  Down to
    w = 8h the half-offset nodes sum to w sqrt(2 pi) / h by Poisson
    summation (the first dual term, exp(-2 pi^2 w^2 / h^2), is 0 there);
    the tail past the grid's M h >= 8w is taken with erfc.  Narrower
    grids hold at most 64 nodes a side and are summed.  A grid that
    reaches past 2 (M > 2/h) sums its outermost 1/h nodes a side, and
    one that ends within 2 the M - 1/h pairs' midpoints.  Every run of
    nodes, of every width, goes through _gaussian_row_sums.  A grid with
    every node in (-1, 1) has (F, G) = (0, 1).
    """
    cells, radius = _gaussian_grid(widths, grid_spacing)
    spread = 2.0 * widths * widths
    reach = radius * grid_spacing / (math.sqrt(2.0) * widths)
    total = widths / grid_spacing * math.sqrt(0.5 * math.pi) * (1.0 - _each(math.erfc, reach))
    within = radius <= cells  # every node lies in (-1, 1)
    narrow = ~within & (widths < 8.0 * grid_spacing)
    total = np.where(narrow, _gaussian_row_sums(spread, 0.0, np.where(narrow, radius, 0.0), grid_spacing), total)
    central = _gaussian_row_sums(spread, 0.0, np.where(within, 0.0, cells), grid_spacing)
    # the M - 1/h pairs' midpoints from 0, or from M - 1/h the outermost 1/h nodes, whichever are fewer
    inner = radius - cells
    outer = inner > cells
    paired = _gaussian_row_sums(spread, np.where(outer, inner, 0.0), np.clip(inner, 0.0, cells), grid_spacing)
    paired = np.where(outer, total - paired, paired)
    quality = np.where(within, 0.0, _each(math.exp, -1.0 / spread) * paired / total)
    return quality, np.where(within, 1.0, central / total)


def _exponential_grid(scales: np.ndarray, grid_spacing: float):
    """make_exponential's checks on each scale, before it allocates; cells, nodes a side."""
    positivity, cells = _positive_cells("scale", scales, grid_spacing)
    with np.errstate(all="ignore"):  # a refused scale may overflow or be nan
        radius = np.ceil(np.minimum(MAX_POINTER_NODES, np.maximum(40.0 * scales, 2.0) / grid_spacing))
        # |s|: a refused negative scale gives no positive exponent
        exponent = -(0.5 * grid_spacing) / (2.0 * np.abs(scales))
    over = radius > MAX_POINTER_NODES / 2
    _first_refused([
        positivity,
        _cap_check("exponential scale", scales, over, lambda k: 2 * int(radius.item(k))),
        *_resolution_checks("exponential scale", scales, exponent, grid_spacing),
    ])
    return cells, radius


def make_exponential(scale: float, grid_spacing: float = DEFAULT_GRID_SPACING) -> PointerState:
    """Pointer with phi^2 proportional to exp(-|q|/scale), truncated at max(40 scale, 2) and renormalized."""
    _, (radius,) = _exponential_grid(np.array([scale], dtype=float), grid_spacing)
    samples, upper = _upper_positions(int(radius), grid_spacing)
    upper /= -(2.0 * scale)
    np.exp(upper, out=upper)
    return _normalized_state(_mirror(samples), grid_spacing)


def _exponential_strengths(scales: np.ndarray, grid_spacing: float):
    """make_exponential's (F, G) from geometric sums.

    phi^2 at node j is e^(-h/2s) r^j with r = e^(-h/s), so in units of
    e^(-h/2s) / (1 - r) the grid's M nodes a side sum to 1 - r^M and the
    central 1/h to 1 - e^(-1/s).  The grid reaches past 2 (M >= 2/h): the
    1/h pairs 2 apart whose midpoint p lies in (-1, 1) a side each give
    phi(p-1) phi(p+1) = e^(-1/s), the others phi(p)^2, summing to
    e^(-1/s) (1 - r^(M - 2/h)).
    """
    cells, radius = _exponential_grid(scales, grid_spacing)
    step = grid_spacing / scales
    total = -_each(math.expm1, -radius * step)
    inside = cells * -_each(math.expm1, -step) * _each(math.exp, -(2.0 - grid_spacing) / (2.0 * scales))
    outside = _each(math.exp, -1.0 / scales) * -_each(math.expm1, -(radius - 2 * cells) * step)
    return (inside + outside) / total, -_each(math.expm1, -1.0 / scales) / total


def _envelope_intervals(targets: np.ndarray, cells: int):
    """Number N of intervals kept on each side of the central one, with each target's ratio (1-G)/(1+G) and its log.

    Intervals whose envelope weight ((1-G)/(1+G))^|n| relative to the
    central interval drops below ENVELOPE_CUTOFF are dropped, and the
    grid of 2 (2N + 1) / h nodes must fit the node cap.
    """
    in_range = (targets > 0.0) & (targets < 1.0)
    safe = np.where(in_range, targets, 0.5)
    ratio = (1.0 - safe) / (1.0 + safe)
    log_ratio = _each(math.log, ratio)  # 0.0 once G is below half an ulp of 1
    # log(cutoff) / log r > 0, so at least 1; where log r is 0 it is past any cap, as inf is
    n_intervals = np.ceil(math.log(ENVELOPE_CUTOFF) / np.minimum(log_ratio, -1e-300))
    # 2 (2N + 1) cells > cap exactly where the whole N > (cap // 2 cells - 1) // 2
    over = n_intervals > (MAX_POINTER_NODES // (2 * cells) - 1) // 2

    def nodes(k):
        return 2 * (2 * min(MAX_POINTER_NODES, int(n_intervals.item(k))) + 1) * cells

    _first_refused([
        (~in_range, lambda k: InvalidParameterError(f"target precision must lie in (0, 1), got {targets.item(k)}")),
        _cap_check("target precision", targets, over, nodes),
    ])
    return n_intervals, ratio, log_ratio


def _frontier_envelope(target_precision: float, cells: int) -> np.ndarray:
    """Envelope of a frontier pointer: envelope[i] = ((1-G)/(1+G))^(|n|/2) on interval n = i - N.

    The grid it generates with a central profile of 2 cells nodes is
    checked against the node cap, so the rows are refused exactly where
    the grid is.
    """
    (n_intervals,), (ratio,), _ = _envelope_intervals(np.array([target_precision], dtype=float), cells)
    n = np.arange(-int(n_intervals), int(n_intervals) + 1, dtype=float)
    return np.power(float(ratio), np.abs(n) / 2.0)


def _odd_rows(n_rows: int) -> slice:
    """Rows i of a (2N+1)-row frontier whose interval n = i - N is odd."""
    return slice((n_rows // 2 + 1) % 2, None, 2)


def _frontier_samples(central_samples: np.ndarray, target_precision: float, grid_spacing: float) -> np.ndarray:
    """optimal_from_central's grid before it is normalized: a fresh, writable array."""
    cells = _cells_per_unit(grid_spacing)
    envelope = _frontier_envelope(target_precision, cells)
    central = np.asarray(central_samples, dtype=float)
    if central.shape != (2 * cells,):
        raise InvalidParameterError(
            f"central profile must have {2 * cells} samples for spacing {grid_spacing}"
        )
    mass = float(np.sum(central * central)) * grid_spacing
    if not (math.isfinite(mass) and mass > 0.0):
        raise InvalidParameterError(f"central profile mass must be finite and positive, got {mass!r}")
    central = central * math.sqrt(target_precision / mass)
    # the grid radius is an odd number of units, so row n of the
    # (2N+1, 2/h) sample array is the interval (2n-1, 2n+1]
    samples = np.empty(envelope.size * central.size)
    np.multiply(central[None, :], envelope[:, None], out=samples.reshape(envelope.size, central.size))
    return samples


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
    return _normalized_state(_frontier_samples(central_samples, target_precision, grid_spacing), grid_spacing)


def _central_profile(profile: str, target_precision: float, grid_spacing: float) -> np.ndarray:
    """make_optimal's central profile, once the grid it generates is known to fit the cap."""
    cells = _cells_per_unit(grid_spacing)
    _envelope_intervals(np.array([target_precision], dtype=float), cells)  # size the grid before building
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
    renormalized state is larger than the generating target.  The rows
    are zeroed in make_optimal's normalized grid, in place, so the one
    array holds the bits of zeroing a copy of make_optimal's samples.
    """
    central = _central_profile("flat", target_precision, grid_spacing)
    samples = _normalize(_frontier_samples(central, target_precision, grid_spacing), grid_spacing)
    rows = samples.reshape(-1, central.size)
    rows[_odd_rows(rows.shape[0])] = 0.0
    return _normalized_state(samples, grid_spacing)


def _frontier_strengths(targets: np.ndarray, grid_spacing: float, worst: bool = False):
    """(F, G) of make_optimal(target), any profile, or of make_worst(target), from geometric sums.

    With r = (1-G)/(1+G) the envelope squares to r^|n|, |n| <= N, so
    sum(e_n^2) = 1 + 2r (1 - r^N)/(1 - r) and sum(e_n e_{n+1}) =
    2 sqrt(r) (1 - r^N)/(1 - r); the worst pointer keeps only the even
    n <= 2K = N - N % 2, whose squares sum to 1 + 2r^2 (1 - r^2K)/(1 - r^2).
    1 - r^N is -expm1(N log r).  Refuses exactly what the builder refuses.
    """
    n_intervals, ratio, log_ratio = _envelope_intervals(targets, _cells_per_unit(grid_spacing))
    if worst:
        kept = n_intervals - n_intervals % 2
        total = 1.0 + 2.0 * ratio * ratio * -_each(math.expm1, kept * log_ratio) / ((1.0 - ratio) * (1.0 + ratio))
        return np.zeros_like(total), 1.0 / total
    geometric = _each(math.expm1, n_intervals * log_ratio) / (ratio - 1.0)  # -expm1(N log r) / (1 - r), bit for bit
    total = 1.0 + 2.0 * ratio * geometric
    return 2.0 * np.sqrt(ratio) * geometric / total, 1.0 / total


def strength_of(state: PointerState) -> MeasurementStrength:
    """Measure (quality factor, precision) of a pointer by quadrature, through the (F, G) gate."""
    cells = _cells_per_unit(state.grid_spacing)
    phi = state.samples
    shift = 2 * cells
    overlap = float(np.sum(phi[shift:] * phi[:-shift]) * state.grid_spacing) if phi.size > shift else 0.0
    # the nodes with -1 < q < 1 are the central 2/h, clipped to the grid
    half = phi.size // 2
    run = phi[max(0, half - cells) : half + cells]
    return MeasurementStrength(overlap, float(np.sum(run**2) * state.grid_spacing))


_FAMILY_BUILDERS = {
    "square": make_square,
    "gaussian": make_gaussian,
    "exponential": make_exponential,
    "optimal": make_optimal,
    "worst": make_worst,
}
_FAMILY_STRENGTHS = {
    "square": _square_strengths,
    "gaussian": _gaussian_strengths,
    "exponential": _exponential_strengths,
    "optimal": _frontier_strengths,
    "worst": functools.partial(_frontier_strengths, worst=True),
}


def _family_strengths(
    family: str, values: np.ndarray, grid_spacing: float = DEFAULT_GRID_SPACING
) -> tuple[np.ndarray, np.ndarray]:
    """(F, G) arrays of the grids _FAMILY_BUILDERS[family](value, grid_spacing) would build for each value, unbuilt.

    Each family's closed form runs the builder's own checks, each a mask
    over the values, so it refuses the first value in grid order that
    the builder refuses, with the same error; the spacing then only
    fixes which nodes the sums take.  A node-cap refusal names the
    family's parameter and carries the value's index, so a caller that
    maps its own values to that parameter can name its own instead.  No
    grid and no array that grows with the grid is made.
    """
    return _unit_pairs(*_FAMILY_STRENGTHS[family](values, grid_spacing))


def _family_strength(family: str, value: float, grid_spacing: float = DEFAULT_GRID_SPACING) -> MeasurementStrength:
    """The MeasurementStrength of one value: its family's raw closed form over [value], gated once."""
    quality, prec = _FAMILY_STRENGTHS[family](np.array([value], dtype=float), grid_spacing)
    return MeasurementStrength(quality.item(), prec.item())


def tradeoff_curve(
    family: str,
    parameters,
    grid_spacing: float = DEFAULT_GRID_SPACING,
) -> list[tuple[float, float, float]]:
    """Rows (parameter, F, G) for one pointer family.

    The parameter is the half width (square), width (gaussian), scale
    (exponential) or target precision (optimal, worst).
    """
    if family not in _FAMILY_STRENGTHS:
        raise InvalidParameterError(f"unknown pointer family {family!r}")
    parameters = [float(p) for p in parameters]
    if not parameters:
        raise InvalidParameterError("parameter grid is empty")
    quality, prec = _family_strengths(family, np.array(parameters), grid_spacing)
    return list(zip(parameters, quality.tolist(), prec.tolist()))


TRADEOFF_CSV_HEADER = "family,parameter,F,G"


def tradeoff_to_csv(family: str, rows) -> str:
    lines = [TRADEOFF_CSV_HEADER]
    for parameter, fq, gp in rows:
        lines.append(f"{family},{parameter!r},{fq!r},{gp!r}")
    return "\n".join(lines) + "\n"


POINTER_CSV_HEADER = "q,phi"
# pointer CSV lines written as one run where repr writes the positions, as a unit is where fraction texts do
_CSV_BLOCK_LINES = 2**14


def _fraction_texts(half: int, cells: int) -> list[str] | None:
    """The texts ".d...d" of (i + 1/2) / cells for i < cells, if they write every q_j, j < half; else None.

    On a grid of cells = 2^k cells per unit, q_j = (j + 1/2) / cells =
    (2j + 1) 5^(k+1) / 10^(k+1) is a decimal of k + 1 places, whose
    digits integer arithmetic gives in full: its text is its unit
    f"{j // cells}" and then texts[j % cells].  When that digit string
    has at most 15 digits (DBL_DIG), no other decimal of 15 digits or
    fewer rounds to q_j, so it is the shortest one that does, repr(q_j).
    repr also writes q_j positionally only if q_0 = 1/(2 cells) >= 1e-4.
    Both hold for every j < half when they hold for q_{half-1} and q_0.
    """
    places = cells.bit_length()  # k + 1
    scale = 5**places
    if (2 * half - 1) * scale >= 10**15 or 2 * cells > 10**4:
        return None
    # "%0kd" % n is f"{n:0kd}" for every int n >= 0, formatted by one bound method
    return list(map(f".%0{places}d".__mod__, range(scale, 2 * cells * scale, 2 * scale)))


def _csv_run(prefix: str, texts: list[str], amplitude: float | None, bits: np.ndarray) -> str:
    """The lines prefix + texts[i] + "," + the repr of node i's amplitude, for the nodes of one run.

    Where every node of the run holds amplitude, the lines are one join
    around its repr.  Otherwise bits holds the run's amplitudes as int64
    bit patterns: each distinct one is formatted once, and the lines are
    placed into one list by slice assignment and joined once.
    """
    if amplitude is not None:
        tail = f",{amplitude!r}\n"
        return prefix + (tail + prefix).join(texts) + tail
    distinct, which = np.unique(bits, return_inverse=True)
    tails = [f",{a!r}\n" for a in distinct.view(np.float64).tolist()]
    parts = [prefix, "", ""] * len(texts)
    parts[1::3] = texts
    parts[2::3] = map(tails.__getitem__, which.tolist())
    return "".join(parts)


def samples_to_csv(state: PointerState):
    """The header line, then the lines q,phi of every node a run at a time, in grid order; floats as their repr.

    Node M + j of 2M sits at q_j = (j + 1/2) h and node M - 1 - j at
    exactly -q_j (the grid never holds 0), so a position's mirror is the
    same text behind a minus sign.  With h = 1/2^k, q_j is the exact
    decimal (2j + 1) 5^(k+1) / 10^(k+1).  Where it has at most 15 digits
    and q_0 >= 1e-4, that decimal is repr(q_j) (see _fraction_texts), and
    q_j is written as its unit and one of 2^k fraction texts built once:
    on every grid the node cap admits at h = 2^-10 or coarser, and on
    grids of up to 4,096,000 nodes at 2^-11 and 819,200 at 2^-12.  The
    larger grids at 2^-11 and 2^-12, and every grid at 2^-13 or finer
    (whose q_0 < 1e-4 repr writes as 6.103515625e-05 and the like),
    write repr(q_j) node by node, _CSV_BLOCK_LINES nodes a run.

    Each half is cut into runs: a unit of 1/h nodes where the fraction
    texts apply, the last one partial.  The runs are yielded one text
    each, never joined: the lower half's from the most negative, then
    the upper half's.  A run whose amplitudes share one bit pattern (0.0
    and -0.0 apart), as every unit of a flat frontier pointer does,
    formats it once and is one join of its position texts.  Each other
    run formats each distinct bit pattern among its own nodes once, as
    it comes, and places the lines into one list by slice assignment,
    never built one string per line.  The amplitudes themselves are not
    mirrored, as a state need only be symmetric in modulus and within
    1e-9, so an amplitude of a gaussian or exponential grid is formatted
    once in each half.  That costs ~1.5x the time of formatting each
    distinct amplitude of the grid once, and buys a peak of the grid and
    one run's texts, where the grid's texts and its grid-sized index
    took ~7.5 grids more.  Which runs share one amplitude is found before
    the header is yielded, so a writer that consumes the blocks holds
    one run's text at a time.
    """
    samples = state.samples
    half = samples.size // 2
    cells = _cells_per_unit(state.grid_spacing)
    fractions = _fraction_texts(half, cells)
    span = _CSV_BLOCK_LINES if fractions is None else cells
    starts = range(0, half, span)
    # the runs in grid order: the lower half's mirror the upper half's, so its first one holds node 0
    runs = [(start, True) for start in reversed(starts)] + [(start, False) for start in starts]
    edges = [half - min(start + span, half) if lower else half + start for start, lower in runs]
    bits = samples.view(np.int64)
    shared = np.minimum.reduceat(bits, edges) == np.maximum.reduceat(bits, edges)
    # each run's one amplitude, or None where its nodes differ
    amplitudes = [a if one else None for a, one in zip(samples[edges].tolist(), shared.tolist())]
    yield POINTER_CSV_HEADER + "\n"
    for (start, lower), amplitude in zip(runs, amplitudes):
        stop = min(start + span, half)
        nodes = slice(half - stop, half - start) if lower else slice(half + start, half + stop)
        if fractions is None:
            positions = state.grid_origin + np.arange(nodes.start, nodes.stop) * state.grid_spacing
            prefix, texts = "", [repr(q) for q in positions.tolist()]
        elif lower:  # the nodes M-1-j of this run, in ascending order
            prefix, texts = f"-{start // cells}", fractions[stop - start - 1 :: -1]
        else:
            prefix, texts = f"{start // cells}", fractions[: stop - start]
        yield _csv_run(prefix, texts, amplitude, bits[nodes])
