import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    ORACLE_STRENGTHS,
    _oracle_unit_strength,
    assert_same_text,
    oracle_analytic_strength,
    oracle_gaussian_strength,
    oracle_make_exponential,
    oracle_make_gaussian,
    oracle_make_square,
    oracle_make_worst,
    oracle_optimal_from_central,
    oracle_precision,
    oracle_samples_to_csv,
    precision,
    quality_factor,
    value_at,
)

from weakbell import (
    InvalidParameterError,
    InvalidStateError,
    MeasurementStrength,
    PhysicalityError,
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
from weakbell import cli, pointer
from weakbell.bell import _erfinv, _target_strengths, double_violation_curve
from weakbell.channel import strength_pair
from weakbell.errors import NodeCapError
from weakbell.cli import parse_range
from weakbell.pointer import (
    DEFAULT_GRID_SPACING,
    MAX_POINTER_NODES,
    POINTER_CSV_HEADER,
    TRADEOFF_CSV_HEADER,
    _fraction_texts,
    samples_to_csv,
    tradeoff_to_csv,
)

SPACING = DEFAULT_GRID_SPACING


# --- square pointers ---------------------------------------------------------


@pytest.mark.parametrize("half_width", [0.3, 0.7, 1.0])
def test_square_is_strong_up_to_unit_width(half_width):
    state = make_square(half_width)
    assert quality_factor(state) == pytest.approx(0.0, abs=1e-12)
    assert precision(state) == pytest.approx(1.0, abs=1e-12)


def test_square_matches_analytic_overlap():
    # analytic: F = (2d-2)/(2d), G = 2/(2d) for half width d > 1
    state = make_square(1.5)
    assert quality_factor(state) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert precision(state) == pytest.approx(2.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("half_width", [1.25, 1.5, 2.0, 2.75, 1.37, 3.141])
def test_square_complementarity_beyond_unit_width(half_width):
    # G = 1 - F holds for any half width > 1, grid aligned or not
    state = make_square(half_width)
    assert precision(state) == pytest.approx(1.0 - quality_factor(state), abs=1e-12)


def test_square_weak_limit_loses_precision():
    state = make_square(100.0)
    assert precision(state) < 0.011


def test_square_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        make_square(0.0)
    with pytest.raises(InvalidParameterError):
        make_square(-1.0)
    with pytest.raises(InvalidParameterError):
        make_square(0.01)  # spacing coarser than width/50
    with pytest.raises(InvalidParameterError):
        make_square(1.0, grid_spacing=1.0 / 500)  # not 1/2^k


# --- gaussian pointers -------------------------------------------------------


def test_gaussian_matches_closed_forms():
    width = 1.5
    state = make_gaussian(width)
    # displaced-copy overlap of a normal(0, width^2) density
    expected_quality = math.exp(-1.0 / (2.0 * width * width))
    # mass of normal(0, width^2) on (-1, 1)
    expected_precision = math.erf(1.0 / (width * math.sqrt(2.0)))
    assert quality_factor(state) == pytest.approx(expected_quality, abs=1e-9)
    assert precision(state) == pytest.approx(expected_precision, abs=1e-6)


def test_gaussian_strong_limit():
    state = make_gaussian(0.05)
    assert quality_factor(state) < 1e-6
    assert precision(state) > 1.0 - 1e-6


def test_gaussian_truncates_at_eight_widths():
    wide, narrow = make_gaussian(1.0), make_gaussian(0.25)
    assert -wide.grid_origin + wide.grid_spacing / 2 == 8.0
    assert -narrow.grid_origin + narrow.grid_spacing / 2 == 2.0
    with pytest.raises(InvalidParameterError):
        make_gaussian(0.0)


# --- exponential pointers ------------------------------------------------------


def test_exponential_matches_closed_forms():
    # phi(q) = exp(-|q|/2)/sqrt(2) at scale 1: F = 2/e, G = 1 - 1/e
    state = make_exponential(1.0)
    assert quality_factor(state) == pytest.approx(2.0 / math.e, abs=1e-6)
    assert precision(state) == pytest.approx(1.0 - 1.0 / math.e, abs=1e-6)


@pytest.mark.parametrize("scale", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_exponential_lies_strictly_inside_the_circle(scale):
    state = make_exponential(scale)
    fq, gp = quality_factor(state), precision(state)
    assert fq * fq + gp * gp < 1.0 - 1e-6


def test_exponential_strong_limit():
    state = make_exponential(0.02)
    assert quality_factor(state) < 1e-6
    assert precision(state) > 1.0 - 1e-6


# --- optimal family ------------------------------------------------------------


def test_optimal_anchor_point():
    state = make_optimal(0.8)
    assert quality_factor(state) == pytest.approx(0.6, abs=1e-6)
    assert precision(state) == pytest.approx(0.8, abs=1e-6)


def test_optimal_adjacent_interval_amplitude_ratio():
    state = make_optimal(0.8)
    # ((1-G)/(1+G))^(1/2) = 1/3 between neighbouring intervals
    inner = value_at(state, 0.334)
    outer = value_at(state, 2.334)
    assert outer / inner == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("target", [0.1, 0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("profile", ["flat", "smooth_bump"])
def test_optimal_family_sits_on_the_circle(target, profile):
    state = make_optimal(target, profile)
    fq, gp = quality_factor(state), precision(state)
    assert fq * fq + gp * gp == pytest.approx(1.0, abs=1e-6)
    assert fq == pytest.approx(math.sqrt(1.0 - target * target), abs=1e-6)


def test_optimal_trade_off_is_profile_independent():
    # any admissible central profile gives the same quality factor
    rng = np.random.default_rng(7)
    cells = round(1.0 / SPACING)
    for target in (0.25, 0.8):
        raw = rng.random(cells) + 0.1
        central = np.concatenate([raw[::-1], raw])  # symmetric modulus
        state = optimal_from_central(central, target)
        assert quality_factor(state) == pytest.approx(math.sqrt(1.0 - target**2), abs=1e-6)
        assert precision(state) == pytest.approx(target, abs=1e-9)


def test_optimal_rejects_bad_targets():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(InvalidParameterError):
            make_optimal(bad)
    with pytest.raises(InvalidParameterError):
        make_optimal(0.5, profile="sawtooth")


def test_optimal_piecewise_recurrence():
    # phi(q-2) + phi(q+2) = (e^a + e^-a) phi(q) away from the centre,
    # with e^-a the adjacent-interval amplitude ratio
    for profile in ("flat", "smooth_bump"):
        state = make_optimal(0.6, profile)
        ratio = math.sqrt((1.0 - 0.6) / (1.0 + 0.6))
        gamma = ratio + 1.0 / ratio
        q = state.positions
        phi = state.samples
        cells = round(1.0 / state.grid_spacing)
        shift = 2 * cells
        inner = slice(shift, phi.size - shift)
        lhs = phi[: phi.size - 2 * shift] + phi[2 * shift :]
        rhs = gamma * phi[inner]
        outside = np.abs(q[inner]) > 1.0
        # skip the outermost interval, where the truncated envelope breaks the relation
        outside &= np.abs(q[inner]) < -state.grid_origin + state.grid_spacing / 2 - 2.0
        denom = np.maximum(np.abs(rhs[outside]), 1e-300)
        rel = np.abs(lhs[outside] - rhs[outside]) / denom
        assert float(np.max(rel)) < 1e-6


def test_optimal_cannot_be_beaten_by_perturbations():
    rng = np.random.default_rng(123)
    state = make_optimal(0.7, "smooth_bump")
    base = state.samples
    h = state.grid_spacing
    for _ in range(100):
        noise = rng.normal(size=base.size) * 0.01 * float(np.max(np.abs(base)))
        noise = (noise + noise[::-1]) / 2.0  # keep the modulus symmetric
        perturbed = base + noise
        perturbed = perturbed / math.sqrt(float(np.sum(perturbed**2)) * h)
        trial = PointerState(perturbed, h)
        fq, gp = quality_factor(trial), precision(trial)
        assert gp <= math.sqrt(max(0.0, 1.0 - fq * fq)) + 1e-4


def test_smooth_bump_vanishes_at_odd_integers():
    state = make_optimal(0.8, "smooth_bump")
    for q in (-3.0, -1.0, 1.0, 3.0):
        assert abs(value_at(state, q)) < 1e-6


# --- per-interval construction against the per-node oracles ----------------------

# G = 0.005 at spacing 1/1024 (13 M nodes) is left out: the per-node oracle
# would hold about 0.8 GB of temporaries. The targets span envelope interval
# counts from 3,224 (G = 0.005) through 161, 30, 9 and 4 down to the single
# interval of G = 1 - 2^-47, whose ratio (1-G)/(1+G) is already below the cutoff.
_EXACT_CASES = [
    (target, spacing)
    for target in (0.005, 0.05, 0.1, 0.3, 0.5, 0.8, 0.95, 0.995, 0.9999, 1.0 - 2.0**-47)
    for spacing in (1.0 / 64, 1.0 / 256, 1.0 / 1024)
    if not (target == 0.005 and spacing < 1.0 / 256)
]


def _central_profile(profile: str, spacing: float) -> np.ndarray:
    cells = round(1.0 / spacing)
    x = (np.arange(2 * cells) - cells + 0.5) * spacing
    return np.ones_like(x) if profile == "flat" else np.exp(-1.0 / (1.0 - x * x))


@pytest.mark.parametrize("target, spacing", _EXACT_CASES)
@pytest.mark.parametrize("profile", ["flat", "smooth_bump"])
def test_optimal_matches_the_per_node_construction_exactly(target, spacing, profile):
    state = make_optimal(target, profile, spacing)
    oracle = oracle_optimal_from_central(_central_profile(profile, spacing), target, spacing)
    assert np.array_equal(state.samples, oracle.samples)
    assert state.grid_origin == oracle.grid_origin
    assert quality_factor(state) == quality_factor(oracle)
    assert precision(state) == oracle_precision(oracle)


@pytest.mark.parametrize("target, spacing", _EXACT_CASES)
def test_worst_matches_the_per_node_construction_exactly(target, spacing):
    state = make_worst(target, spacing)
    oracle = oracle_make_worst(make_optimal(target, "flat", spacing))
    assert np.array_equal(state.samples, oracle.samples)
    assert quality_factor(state) == quality_factor(oracle)
    assert precision(state) == oracle_precision(oracle)


# --- mirrored builders and the deduplicated CSV against the whole-grid oracles ---------

_SPACINGS = [2.0**-k for k in range(1, 13)]  # 1/2 .. 1/4096


def _same_state(state, oracle):
    assert np.array_equal(state.samples, oracle.samples)
    assert state.grid_origin == oracle.grid_origin
    assert quality_factor(state) == quality_factor(oracle)
    assert precision(state) == precision(oracle)


@pytest.mark.parametrize("spacing", _SPACINGS)
def test_gaussian_matches_the_whole_grid_construction_exactly(spacing):
    # from 1/40 of a cell, where the samples nearest 0 are e^-100, to 3 units
    for width in (spacing / 40, spacing / 3, spacing, 0.05, 0.7, 3.0):
        _same_state(make_gaussian(width, spacing), oracle_make_gaussian(width, spacing))


@pytest.mark.parametrize("spacing", _SPACINGS)
def test_square_matches_the_whole_grid_construction_exactly(spacing):
    widths = [50 * spacing, 137 * spacing + spacing / 3]  # the narrowest the grid allows, and off the nodes
    if spacing <= 1.0 / 64:
        # 1.5 + h/2 is the node (j + 1/2) h with j = 1.5/h; |q| < half width keeps it out
        widths += [1.0, 1.37, 1.5 + spacing / 2, 3.0]
    for half_width in widths:
        _same_state(make_square(half_width, spacing), oracle_make_square(half_width, spacing))
    if spacing <= 1.0 / 64:
        state = make_square(1.5 + spacing / 2, spacing)
        half = state.samples.size // 2
        inside = round(1.5 / spacing)
        assert state.samples[half + inside - 1] > 0.0 and state.samples[half + inside] == 0.0


@pytest.mark.parametrize("spacing", _SPACINGS)
def test_exponential_matches_the_whole_grid_construction_exactly(spacing):
    for scale in (spacing / 40, spacing / 3, 0.05, 0.4, 1.0):
        _same_state(make_exponential(scale, spacing), oracle_make_exponential(scale, spacing))


@pytest.mark.parametrize(
    "build, oracle, values",
    [
        (make_gaussian, oracle_make_gaussian, (1e-5, 1e-160, 1e-170, 5e-324)),
        (make_exponential, oracle_make_exponential, (1e-10, 1e-320, 5e-324)),
    ],
)
def test_profiles_narrower_than_the_grid_are_refused_before_allocating(build, oracle, values):
    for value in values:
        with np.errstate(all="ignore"):
            with pytest.raises(InvalidStateError, match="zero norm"):
                oracle(value, SPACING)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameterError, match="too small for grid spacing.*--spacing"):
                build(value)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


# the parameter at which the exponent at q = h/2 reads 345 (the largest
# sample's square, e^-690, about to turn subnormal) and 380 (that square 0);
# the norm^2 it gives, 2 h e^-2T, underflows in between
@pytest.mark.parametrize(
    "build, oracle, band",
    [
        (make_gaussian, oracle_make_gaussian, (SPACING / (4 * 345**0.5), SPACING / (4 * 380**0.5))),
        (make_exponential, oracle_make_exponential, (SPACING / (4 * 345), SPACING / (4 * 380))),
    ],
)
def test_the_narrowness_check_refuses_only_zero_norm_grids(build, oracle, band):
    # walk down through the band where the largest sample's square turns
    # subnormal and then 0: whatever the whole-grid oracle builds is built
    # with the same bits, and only grids the oracle cannot normalize are
    # refused, each with a message naming the width and --spacing
    seen = set()
    for value in np.geomspace(*band, 400).tolist():
        with np.errstate(all="ignore"):
            try:
                expected = oracle(value, SPACING)
            except InvalidStateError as exc:
                expected = str(exc)
        try:
            state = build(value)
        except InvalidParameterError as exc:
            assert f"{value!r} is too small for grid spacing" in str(exc) and "--spacing" in str(exc)
            if expected == "pointer has zero norm":
                assert "underflows to 0" in str(exc)
                seen.add("refused")
            else:
                # a norm^2 so deep in the subnormals that it has too few bits to pass the check
                assert expected.startswith("pointer not normalized")
                assert "too small to normalize" in str(exc)
                seen.add("not normalized")
            continue
        _same_state(state, expected)
        seen.add("built")
    assert seen == {"built", "not normalized", "refused"}


@pytest.mark.parametrize(
    "build, spacing",
    [
        (lambda h: make_square(1.5, h), SPACING),
        (lambda h: make_gaussian(0.7, h), SPACING),
        (lambda h: make_gaussian(0.01, h), SPACING),
        (lambda h: make_exponential(0.4, h), SPACING),
        (lambda h: make_optimal(0.8, "flat", h), SPACING),
        (lambda h: make_optimal(0.8, "smooth_bump", h), 2.0**-10),
        (lambda h: make_worst(0.6, h), SPACING),
        # the finest spacing whose nodes nearest 0 print positionally (0.0001220703125)
        (lambda h: make_optimal(0.8, "flat", h), 2.0**-12),
        # at 2^-13 and 2^-14 they print in scientific notation (6.103515625e-05, 3.0517578125e-05)
        (lambda h: make_square(0.01, h), 2.0**-13),
        (lambda h: make_gaussian(0.05, h), 2.0**-13),
        (lambda h: make_square(0.01, h), 2.0**-14),
        (lambda h: make_gaussian(0.05, h), 2.0**-14),
        (lambda h: make_exponential(0.001, h), 2.0**-14),
    ],
    ids=[
        "square-1.5", "gaussian-0.7", "gaussian-0.01", "exponential-0.4", "optimal-0.8",
        "smooth-bump-0.8-h2^-10", "worst-0.6", "optimal-0.8-h2^-12", "square-0.01-h2^-13",
        "gaussian-0.05-h2^-13", "square-0.01-h2^-14", "gaussian-0.05-h2^-14", "exponential-0.001-h2^-14",
    ],
)
def test_pointer_csv_matches_the_per_line_formatter(build, spacing):
    state = build(spacing)
    assert_same_text("".join(samples_to_csv(state)), oracle_samples_to_csv(state))


@pytest.mark.parametrize(
    "build, run",
    [(lambda: make_worst(0.6), 512), (lambda: make_optimal(0.8, grid_spacing=2.0**-13), pointer._CSV_BLOCK_LINES)],
    ids=["units", "repr-runs"],
)
def test_pointer_csv_is_the_header_then_one_text_per_run_in_grid_order(build, run):
    # a unit of 1/h nodes where the fraction texts write the positions, else _CSV_BLOCK_LINES nodes
    state = build()
    blocks = list(samples_to_csv(state))
    assert blocks[0] == POINTER_CSV_HEADER + "\n"
    half = state.samples.size // 2
    lengths = [min(run, half - start) for start in range(0, half, run)]
    assert [block.count("\n") for block in blocks[1:]] == lengths[::-1] + lengths
    first = [float(block.split(",", 1)[0]) for block in blocks[1:]]
    assert first == sorted(first) and first[0] == state.grid_origin


def test_pointer_csv_writes_hand_built_states_as_given():
    q = (np.arange(4096) - 2047.5) * SPACING
    bump = np.exp(-q * q / 0.02)  # 0.0 from |q| > 3.9 on
    # antisymmetric, with -0.0 on the left tail and 0.0 on the right
    odd = PointerState(np.where(q < 0, -bump, bump) / math.sqrt(np.sum(bump * bump) * SPACING), SPACING)
    assert {math.copysign(1.0, a) for a in odd.samples[odd.samples == 0.0]} == {-1.0, 1.0}
    text = "".join(samples_to_csv(odd))
    assert_same_text(text, oracle_samples_to_csv(odd))
    assert text.startswith("q,phi\n-3.9990234375,-0.0\n") and text.endswith("\n3.9990234375,0.0\n")
    # a modulus asymmetric within the 1e-9 the state allows is written as it is
    samples = bump / math.sqrt(np.sum(bump * bump) * SPACING)
    samples[2100] += 5e-10
    lopsided = PointerState(samples, SPACING)
    assert lopsided.samples[2100] != lopsided.samples[4095 - 2100]
    assert_same_text("".join(samples_to_csv(lopsided)), oracle_samples_to_csv(lopsided))


@pytest.mark.parametrize("k", range(13))
def test_fraction_texts_equal_the_per_cell_f_string(k):
    # 2^0 .. 2^12 cells per unit: every grid the fraction texts write
    cells = 2**k
    places = cells.bit_length()
    scale = 5**places
    assert _fraction_texts(1, cells) == [f".{(2 * i + 1) * scale:0{places}d}" for i in range(cells)]


def _edited(state, edits):
    """state with samples[i] = value for each (i, value) in edits."""
    samples = state.samples.copy()
    for i, value in edits:
        samples[i] = value
    return PointerState(samples, state.grid_spacing)


def _frontier_with_odd_nodes():
    # one node of an upper unit a bit pattern apart, and one of a lower unit negated
    base = make_optimal(0.8)
    half = base.samples.size // 2
    up, down = half + 512 + 100, half - 2 * 512 - 7
    return _edited(base, [(up, math.nextafter(base.samples[up], 0.0)), (down, -base.samples[down])])


def _worst_with_negative_zeros():
    # a zeroed interval holding one -0.0 on each side, which must not merge with 0.0
    base = make_worst(0.6)
    half = base.samples.size // 2
    assert base.samples[half + 512 + 3] == 0.0 and base.samples[half - 512 - 300] == 0.0
    return _edited(base, [(half + 512 + 3, -0.0), (half - 512 - 300, -0.0)])


def _bump_with_a_partial_zero_unit(odd):
    # 2.5 units a side: the partial last unit (2, 2.5) holds only 0.0, or -0.0 on the left when odd
    q = (np.arange(2560) - 1279.5) * SPACING
    bump = np.exp(-q * q / 0.002)
    samples = bump / math.sqrt(np.sum(bump * bump) * SPACING)
    return PointerState(np.where(q < 0, -samples, samples) if odd else samples, SPACING)


@pytest.mark.parametrize(
    "build",
    [_frontier_with_odd_nodes, _worst_with_negative_zeros, lambda: _bump_with_a_partial_zero_unit(False),
     lambda: _bump_with_a_partial_zero_unit(True)],
    ids=["frontier-odd-nodes", "worst-negative-zeros", "bump-partial-unit", "odd-bump-partial-unit"],
)
def test_pointer_csv_writes_units_of_one_bit_pattern_only_where_every_node_shares_it(build):
    state = build()
    text = "".join(samples_to_csv(state))
    assert_same_text(text, oracle_samples_to_csv(state))
    half = state.samples.size // 2
    bits = state.samples.view(np.int64)
    # each run of the hand-built states holds one bit pattern but the edited one
    units = [bits[half + start : half + start + 512] for start in range(0, half, 512)]
    units += [bits[max(0, half - start - 512) : half - start] for start in range(0, half, 512)]
    shared = sum(np.unique(unit).size == 1 for unit in units)
    assert 0 < shared < len(units)
    if build is _worst_with_negative_zeros:
        assert text.count(",-0.0\n") == 2


def _heap_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_gaussian_build_and_strength_peak_at_twice_the_grid():
    # the samples plus one grid-sized product in the quadrature; whole-grid
    # temporaries (positions, q*q, the quotient) would reach three grids
    peak, state = _heap_peak(lambda: (lambda s: (strength_of(s), s)[1])(make_gaussian(100.0)))
    assert state.samples.size == 819_200
    assert peak <= 2.25 * state.samples.nbytes


@pytest.mark.parametrize(
    "build", [lambda: make_gaussian(16.0), lambda: make_optimal(0.2)], ids=["gaussian-16", "optimal-0.2"]
)
def test_pointer_csv_peaks_below_the_per_line_formatter(build):
    # a gaussian holds one distinct amplitude per node pair, the frontier a few per interval
    state = build()
    assert state.samples.size >= 2**17
    peak, text = _heap_peak(lambda: "".join(samples_to_csv(state)))
    oracle_peak, oracle_text = _heap_peak(lambda: oracle_samples_to_csv(state))
    assert_same_text(text, oracle_text)
    assert peak < oracle_peak


@pytest.mark.parametrize(
    "family, flag, value",
    [
        ("optimal", "--g", "0.2"),
        ("square", "--delta", "128"),
        ("gaussian", "--delta", "16"),
        ("exponential", "--scale", "4"),
    ],
)
def test_pointer_dump_holds_its_grid_and_a_few_runs_of_text(tmp_path, family, flag, value):
    # a flat pointer's runs are its units, ~20 KB of text each; the builder also
    # squares two 2^16-node blocks (1 MiB) while it normalizes. In-process the
    # command peaked at the grid + 1 MiB + 11 KB (optimal G = 0.2, 164,864 nodes,
    # 5.9 MB of text) and + 3 KB (square 128), where the text held twice took 13.5 MB.
    # A gaussian or exponential run formats its own distinct amplitudes: + 2 KB
    # each (gaussian 16, 131,072 nodes; exponential 4, 163,840 nodes), where the
    # texts of the grid's distinct amplitudes and their index took ~9.6 grids
    state = pointer._FAMILY_BUILDERS[family](float(value))
    assert state.samples.size >= 2**17
    run = max(map(len, samples_to_csv(state)))
    out = tmp_path / "pointer.csv"
    cli.build_parser()  # built once a process, and held: not the dump's
    peak, code = _heap_peak(lambda: cli.main(["pointer-dump", "--family", family, flag, value, "--out", str(out)]))
    assert code == 0
    assert peak < state.samples.nbytes + 2 * 8 * pointer._BLOCK_NODES + 4 * run
    assert out.stat().st_size > peak


# --- frontier (F, G) from rows ----------------------------------------------------
# double --family optimal and tradeoff --family optimal|worst read F and G
# from the rows; the materialised grids and the per-node builders are the
# oracles.

_FRONTIER_TOL = 1e-14


def test_frontier_rows_agree_with_the_optimal_grid_on_the_cli_sweep():
    for target in parse_range("0.005:0.995:0.005"):
        fq, gp = strength_pair(pointer._family_strength("optimal", target))
        state = make_optimal(target)
        assert abs(fq - quality_factor(state)) <= _FRONTIER_TOL, target
        assert abs(gp - precision(state)) <= _FRONTIER_TOL, target


def test_frontier_rows_agree_with_the_worst_grid():
    for target in parse_range("0.1:0.9:0.1"):
        fq, gp = strength_pair(pointer._family_strength("worst", target))
        assert fq == 0.0
        assert abs(gp - precision(make_worst(target))) <= _FRONTIER_TOL, target


@pytest.mark.parametrize("spacing", [1.0 / 64, 1.0 / 1024])
@pytest.mark.parametrize("profile", ["flat", "smooth_bump"])
def test_frontier_rows_agree_with_the_per_node_construction(spacing, profile):
    # the envelope sums hold for any central profile: its mass cancels
    targets = (0.005, 0.05, 0.3, 0.8, 0.995) if spacing == 1.0 / 64 else (0.05, 0.3, 0.8, 0.995)
    for target in targets:
        oracle = oracle_optimal_from_central(_central_profile(profile, spacing), target, spacing)
        fq, gp = strength_pair(pointer._family_strength("optimal", target, spacing))
        assert abs(fq - quality_factor(oracle)) <= _FRONTIER_TOL, target
        assert abs(gp - oracle_precision(oracle)) <= _FRONTIER_TOL, target


def test_frontier_strength_does_not_depend_on_the_spacing():
    # the spacing only sizes the node cap, and every target here fits it at 1/1024
    for target in (0.005, 0.05, 0.3, 0.8, 0.995):
        for family in ("optimal", "worst"):
            first, *others = [
                pointer._family_strength(family, target, h) for h in (1.0 / 64, 1.0 / 512, 1.0 / 1024)
            ]
            for other in others:
                assert strength_pair(other) == strength_pair(first), (target, family)


def test_frontier_strength_builds_no_grid(monkeypatch):
    grid = parse_range("0.005:0.995:0.005")
    expected = double_violation_curve("optimal", grid)
    tracemalloc.start()
    try:
        double_violation_curve("optimal", [0.005])  # make_optimal(0.005) holds 6.6 M nodes, 53 MB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000

    def refuse(self):
        raise AssertionError("a pointer grid was built")

    monkeypatch.setattr(PointerState, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="grid was built"):
        make_optimal(0.5)
    assert double_violation_curve("optimal", grid) == expected
    for family in ("optimal", "worst"):
        rows = tradeoff_curve(family, parse_range("0.1:0.9:0.1"))
        assert len(rows) == 9
        assert all(fq == 0.0 for _, fq, _ in rows) == (family == "worst")


def _refusal(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "target",
    [
        0.0, 1.0, -0.2, 1.5, math.nan, math.inf, -math.inf,  # G outside (0, 1)
        0.0015,  # 22 M nodes at the default spacing, past the cap
        1e-300, 1e-17,  # (1-G)/(1+G) rounds to 1: no finite interval count
    ],
)
def test_frontier_strength_refuses_what_the_builders_refuse(target):
    for worst, build in ((False, make_optimal), (True, make_worst)):
        expected = _refusal(lambda: build(target))
        # a grid past the node cap is refused by the InvalidParameterError that names the cap
        assert expected[0] is (NodeCapError if "over the cap" in expected[1] else InvalidParameterError)
        assert _refusal(lambda: pointer._family_strength("worst" if worst else "optimal", target)) == expected


def test_frontier_rows_refuse_the_central_profiles_the_builder_refuses():
    cells = round(1.0 / SPACING)
    flat = np.ones(2 * cells)
    lopsided = flat.copy()
    lopsided[0] = 2.0
    nan = flat.copy()
    nan[3] = math.nan
    huge = np.full(2 * cells, 1e200)  # its mass overflows
    infinite = np.full(2 * cells, math.inf)
    for central in (np.zeros(2 * cells), np.ones(cells), lopsided, nan, huge, infinite):
        with np.errstate(over="ignore"):
            kind, message = _refusal(lambda: optimal_from_central(central, 0.5, SPACING))
        assert kind in (InvalidParameterError, InvalidStateError)
        # a non-finite mass is named as the fault, not found later as a bad norm
        if central is nan or central is huge or central is infinite:
            assert kind is InvalidParameterError and "mass" in message


def test_builders_refuse_grids_past_the_node_cap_before_allocating():
    # at the default spacing G = 0.002 fits (16.5 M nodes) and G = 0.0015 (22 M) does not
    cells = round(1.0 / SPACING)
    n_intervals = int(pointer._envelope_intervals(np.array([0.002]), cells)[0][0])
    assert 2 * (2 * n_intervals + 1) * cells <= MAX_POINTER_NODES
    too_big = [
        lambda: make_optimal(0.0015),
        lambda: make_worst(0.0015),
        lambda: make_optimal(0.8, grid_spacing=2.0**-19),
        lambda: make_optimal(1e-300),  # (1-G)/(1+G) rounds to 1
        lambda: make_gaussian(1e4),
        lambda: make_gaussian(1e308),
        lambda: make_exponential(1e308),
        lambda: make_square(2.0**15),
        lambda: make_square(1.0, grid_spacing=2.0**-24),
    ]
    tracemalloc.start()
    try:
        for build in too_big:
            with pytest.raises(InvalidParameterError, match="cap"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_grid_spacing_needs_a_finite_reciprocal():
    for build in (make_square, make_gaussian, make_exponential):
        with pytest.raises(InvalidParameterError, match="finite reciprocal"):
            build(1.0, grid_spacing=5e-324)


# --- every family's (F, G) in closed form against the grid ------------------------
# _family_strength reads F and G from a few sums and builds no grid; the
# builder's grid and its quadrature (strength_of) are the oracle.

_FAMILIES = ("square", "gaussian", "exponential", "optimal", "worst")
# the closed form and the quadrature round differently, and a value that
# is exp of a large argument x also carries that argument's rounding, |x|
# ulps; measured at most 9 ulps (the optimal grid's G) and 0.8 |ln v| ulps
# (an exponential F of 1e-255), so the bound is 16 (1 + |ln v|) ulps
_CLOSED_FORM_ULPS = 16


def _assert_agrees_with_grid(family, value, spacing=SPACING):
    closed = pointer._family_strength(family, value, spacing)
    grid = strength_of(pointer._FAMILY_BUILDERS[family](value, grid_spacing=spacing))
    for name, got, want in (("F", closed.quality_factor, grid.quality_factor), ("G", closed.precision, grid.precision)):
        top = max(got, want)
        if top < 1e-300:  # both underflow; below the normal range an ulp bound means nothing
            continue
        bound = _CLOSED_FORM_ULPS * (1.0 + abs(math.log(top))) * math.ulp(top)
        assert abs(got - want) <= bound, (family, value, spacing, name, got, want)


def _family_parameter(family, target):
    """The parameter double maps a target precision to (bell._target_strengths)."""
    if family == "square":
        return 1.0 / target
    if family == "gaussian":
        return 1.0 / (math.sqrt(2.0) * _erfinv(target))
    return target


@pytest.mark.parametrize("family", ["square", "gaussian", "optimal", "worst"])
def test_closed_forms_agree_with_the_grid_on_the_readme_targets(family):
    for target in parse_range("0.005:0.995:0.005"):
        _assert_agrees_with_grid(family, _family_parameter(family, target))


@pytest.mark.parametrize(
    "family, values",
    [
        ("optimal", "0.1:0.9:0.1"),
        ("square", "1:3:0.25"),
        ("gaussian", "0.1:2:0.1"),
        ("exponential", "0.1:2:0.1"),
        ("worst", "0.01:0.99:0.01"),
    ],
)
def test_closed_forms_agree_with_the_grid_on_the_readme_tradeoff_ranges(family, values):
    for value in parse_range(values):
        _assert_agrees_with_grid(family, value)


def _swept_parameter(family, spacing, u):
    """A parameter from u in [0, 1], log-uniform, whose grid holds at most about 2^18 nodes a side.

    The narrow ends keep the largest sample's square normal (e^-200);
    below that the grid normalizes a subnormal norm only to 1e-9.
    """
    if family == "square":
        return 50.0 * spacing * (2.0**12) ** u
    if family == "gaussian":
        return spacing / 40.0 * (40.0 * 2.0**15) ** u
    if family == "exponential":
        return spacing / 400.0 * (10.0 * 2.0**18) ** u
    return 0.05 + 0.949 * u


@pytest.mark.parametrize("family", _FAMILIES)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(k=st.integers(1, 10), u=st.floats(0.0, 1.0))
def test_closed_forms_agree_with_the_grid_at_every_spacing(family, k, u):
    spacing = 2.0**-k
    _assert_agrees_with_grid(family, _swept_parameter(family, spacing, u), spacing)


def _exact_node_sums(family, value, spacing):
    """(F, G) as math.fsum of the unnormalized profile at the grid's nodes: no quadrature rounding.

    F sums phi(p-1) phi(p+1) over the pairs' midpoints p, each product
    from its own exponent, not from the identities the closed forms use.
    """
    cells = round(1.0 / spacing)
    if family in ("optimal", "worst"):
        envelope = pointer._frontier_envelope(value, cells)
        if family == "worst":
            envelope[pointer._odd_rows(envelope.size)] = 0.0
        total = math.fsum((envelope * envelope).tolist())
        quality = math.fsum((envelope[1:] * envelope[:-1]).tolist()) / total
        return quality, 1.0 / total
    if family == "gaussian":
        radius_cells = math.ceil(8.0 * value / spacing)
        exponent = lambda q: -(q * q) / (4.0 * value * value)  # noqa: E731
    else:
        radius_cells = math.ceil(max(40.0 * value, 2.0) / spacing)
        exponent = lambda q: -np.abs(q) / (2.0 * value)  # noqa: E731
    q = (np.arange(radius_cells) + 0.5) * spacing
    total = math.fsum(np.exp(2.0 * exponent(q)).tolist())
    central = math.fsum(np.exp(2.0 * exponent(q[:cells])).tolist())
    p = q[: max(0, radius_cells - cells)]
    paired = math.fsum(np.exp(exponent(p - 1.0) + exponent(p + 1.0)).tolist())
    return paired / total, min(1.0, central / total)


# the closed forms against the exact sums of the same node values: G
# within 4 ulps, F (exp of an argument as large as |ln F|) within
# 4 (1 + |ln F|) ulps
_EXACT_SUM_ULPS = 4


@pytest.mark.parametrize("family", ["gaussian", "exponential", "optimal", "worst"])
@pytest.mark.parametrize("spacing", [2.0**-1, 2.0**-4, 2.0**-9])
def test_closed_forms_match_exact_sums_over_the_nodes(family, spacing):
    if family == "gaussian":
        values = np.geomspace(spacing / 8.0, 2.0**13 * spacing, 30)
    elif family == "exponential":
        values = np.geomspace(spacing / 20.0, 2.0**13 * spacing, 30)
    else:
        values = np.linspace(0.05, 0.995, 30)
    for value in values.tolist():
        closed = pointer._family_strength(family, value, spacing)
        quality, gp = _exact_node_sums(family, value, spacing)
        assert abs(closed.precision - gp) <= _EXACT_SUM_ULPS * math.ulp(gp), (family, value, closed, gp)
        if quality > 0.0:
            bound = _EXACT_SUM_ULPS * (1.0 - math.log(quality)) * math.ulp(quality)
            assert abs(closed.quality_factor - quality) <= bound, (family, value, closed, quality)
        else:
            assert closed.quality_factor == 0.0


def _outcome(call):
    """A call's (error type, message), or its result's (F, G)."""
    try:
        result = call()
    except Exception as exc:  # any refusal: its type and message are what is compared
        return type(exc), str(exc)
    return "built", result


def _assert_same_refusals(family, values, spacing=SPACING):
    """_family_strength refuses each value exactly as the builder does; returns the outcomes seen."""
    seen = set()
    for value in values:
        with np.errstate(all="ignore"):
            built = _outcome(lambda: pointer._FAMILY_BUILDERS[family](value, grid_spacing=spacing))
        closed = _outcome(lambda: pointer._family_strength(family, value, spacing))
        if built[0] == "built":
            assert closed[0] == "built", (family, value, closed)
            seen.add("built")
        else:
            assert closed == built, (family, value)
            seen.add(built[0].__name__)
    return seen


# values past the real cap, which every builder refuses before it allocates
_PAST_THE_CAP = {
    "square": [2.0**15, 1e308],
    "gaussian": [1e4, 1e308],
    "exponential": [1e3, 1e308],
    "optimal": [0.0015, 1e-17],  # at 1e-17 (1-G)/(1+G) rounds to 1
    "worst": [0.0015, 1e-300],
}


@pytest.mark.parametrize("family", _FAMILIES)
def test_closed_forms_refuse_bad_values_and_spacings_as_the_builders_do(family):
    seen = _assert_same_refusals(family, [0.0, -0.0, -1.0, math.nan, -math.inf])
    assert seen == {"InvalidParameterError"}
    assert _assert_same_refusals(family, _PAST_THE_CAP[family]) == {"NodeCapError"}
    # an infinite width asks for a grid past the cap; an infinite target is out of range
    infinite = _assert_same_refusals(family, [math.inf])
    assert infinite == ({"InvalidParameterError"} if family in ("optimal", "worst") else {"NodeCapError"})
    good = 0.5 if family in ("optimal", "worst") else 1.0
    for spacing in (0.0, -SPACING, math.nan, math.inf, 5e-324, 1.0, 0.3, 1.5 * SPACING, 2.0):
        assert _assert_same_refusals(family, [good], spacing) == {"InvalidParameterError"}
    if family not in ("optimal", "worst"):
        # a square needs spacing <= width/50; the others are only resolved or not
        seen = _assert_same_refusals(family, [0.01, 0.0195, 0.02, 0.0196], 2.0**-10)
        assert seen == ({"InvalidParameterError"} if family == "square" else {"built"})


# a cap of 2^16 nodes puts each family's last grid a few ms from the boundary
_SMALL_CAP = 2**16


def _values_across_the_cap(family):
    """Values whose grids hold the cap's node count and one node pair more and less, plus a scan across."""
    cells = round(1.0 / SPACING)
    a_side = _SMALL_CAP // 2
    if family == "square":  # 2 (ceil(w / h) + 1/h) nodes
        edge = (a_side - cells) * SPACING
        return [edge - SPACING, edge, math.nextafter(edge, math.inf), edge + SPACING]
    if family == "gaussian":  # 2 ceil(8 w / h) nodes
        edge = a_side * SPACING / 8.0
        return [edge - SPACING / 8.0, edge, math.nextafter(edge, math.inf), edge + SPACING / 8.0]
    if family == "exponential":  # 2 ceil(40 s / h) nodes, 40 s rounding either way
        edge = a_side * SPACING / 40.0
        return [edge * (1.0 + k * 2.0**-52) for k in range(-8, 9)] + [edge - SPACING / 40.0, edge + SPACING / 40.0]
    # 2 (2N + 1) / h nodes: N = 31 fits, N = 32 does not; G = 0.478 crosses over
    return np.linspace(0.47, 0.49, 81).tolist()


@pytest.mark.parametrize("family", _FAMILIES)
def test_closed_forms_refuse_at_the_node_cap_as_the_builders_do(family, monkeypatch):
    monkeypatch.setattr(pointer, "MAX_POINTER_NODES", _SMALL_CAP)
    seen = _assert_same_refusals(family, _values_across_the_cap(family))
    assert seen == {"built", "NodeCapError"}
    # and as the per-value oracles do, each value alone and as one sweep
    assert _assert_matches_the_oracles(family, _values_across_the_cap(family), alone=True) == seen


@pytest.mark.parametrize(
    "family, band",
    [
        ("gaussian", (SPACING / (4 * 345**0.5), SPACING / (4 * 380**0.5))),
        ("exponential", (SPACING / (4 * 345), SPACING / (4 * 380))),
    ],
)
def test_closed_forms_refuse_unnormalizable_widths_as_the_builders_do(family, band):
    # the band where the largest sample's square turns subnormal and then 0
    # (see test_the_narrowness_check_refuses_only_zero_norm_grids)
    values = np.geomspace(*band, 400).tolist()
    assert _assert_same_refusals(family, values + [1e-5, 1e-160, 1e-320]) == {"built", "InvalidParameterError"}
    reasons = set()
    for value in values:
        kind, result = _outcome(lambda: pointer._family_strength(family, value))
        if kind != "built":
            reasons.add(result.split(": ", 1)[1].split(";")[0])
    assert reasons == {"the pointer's norm underflows to 0", "the pointer's norm is too small to normalize"}


def test_builders_and_closed_forms_check_one_dimensional_masks(monkeypatch):
    # one path: every builder, the one-value call and the sweeps hand
    # _first_refused masks over a 1-D array of values, refusing or not
    first_refused = pointer._first_refused
    masks = []

    def recording(checks):
        masks.extend((type(mask), np.ndim(mask)) for mask, _ in checks)
        return first_refused(checks)

    monkeypatch.setattr(pointer, "_first_refused", recording)
    entries = {
        "builders": lambda: [
            make_square(1.5),
            make_gaussian(0.7),
            make_exponential(0.4),
            make_optimal(0.8),
            make_optimal(0.8, "smooth_bump", 2.0**-10),
            make_worst(0.6),
        ],
        "builder refusals": lambda: [
            _outcome(call)
            for call in (
                lambda: make_square(-1.0),
                lambda: make_square(1.5, 0.3),
                lambda: make_gaussian(1e-5),
                lambda: make_exponential(float("nan")),
                lambda: make_optimal(1.0),
                lambda: make_worst(0.001),
            )
        ],
        "_family_strength": lambda: [
            pointer._family_strength(family, value)
            for family, value in zip(_FAMILIES, (1.5, 0.7, 0.4, 0.8, 0.6))
        ],
        "tradeoff_curve": lambda: [
            tradeoff_curve(family, values)
            for family, values in zip(_FAMILIES, ([1.5, 2.0], [0.2, 0.7], [0.1, 0.4], [0.2, 0.8], [0.2, 0.6]))
        ],
        "double_violation_curve": lambda: [
            double_violation_curve(family, [0.2, 0.5, 0.8]) for family in ("square", "gaussian", "optimal")
        ],
    }
    for name, entry in entries.items():
        del masks[:]
        entry()
        assert masks and set(masks) == {(np.ndarray, 1)}, (name, set(masks))


@pytest.mark.parametrize(
    "build, band",
    [
        (make_gaussian, (SPACING / (4 * 345**0.5), SPACING / (4 * 380**0.5))),
        (make_exponential, (SPACING / (4 * 345), SPACING / (4 * 380))),
    ],
)
def test_builders_refuse_unnormalizable_widths_before_they_normalize(build, band, monkeypatch):
    # a width too small to normalize is refused by the builder's own
    # checks, before it allocates, never by a failed normalization
    unnormalizable = [
        value
        for value in np.geomspace(*band, 400).tolist()
        if "too small to normalize" in str(_outcome(lambda: build(value))[1])
    ]
    assert unnormalizable

    def refuse(samples, grid_spacing):
        raise AssertionError("a grid was normalized")

    monkeypatch.setattr(pointer, "_normalize", refuse)
    for value in unnormalizable:
        with pytest.raises(InvalidParameterError, match="too small to normalize"):
            build(value)


@pytest.mark.parametrize(
    "family, value",
    [("square", 16000.0), ("gaussian", 1999.0), ("exponential", 400.0), ("optimal", 0.002), ("worst", 0.002)],
)
def test_closed_forms_near_the_cap_allocate_no_grid(family, value):
    # each builder would allocate 16.4 M nodes (131 MB) here
    peak, strength = _heap_peak(lambda: pointer._family_strength(family, value))
    assert peak < 1_000_000, (family, peak)
    assert 0.0 < strength.precision < 0.01


def test_no_family_strength_builds_a_grid(monkeypatch):
    grid = parse_range("0.005:0.995:0.005")

    def refuse(self):
        raise AssertionError("a pointer grid was built")

    monkeypatch.setattr(PointerState, "__post_init__", refuse)
    for family in ("square", "gaussian", "optimal"):
        rows = double_violation_curve(family, grid)
        assert len(rows) == 199
    for family, values in (("square", "1:3:0.25"), ("gaussian", "0.1:2:0.1"), ("exponential", "0.1:2:0.1")):
        assert len(tradeoff_curve(family, parse_range(values))) == len(parse_range(values))
    with pytest.raises(AssertionError, match="grid was built"):
        make_square(1.5)


def test_square_and_gaussian_double_sweeps_allocate_no_grid():
    # at G = 0.005 the square grid holds 205 k nodes and the gaussian 3.3 M (26 MB)
    for family in ("square", "gaussian"):
        peak, rows = _heap_peak(lambda: double_violation_curve(family, [0.005]))
        assert peak < 1_000_000, (family, peak)


def test_worst_builder_holds_one_grid():
    # it once held make_optimal's grid, a copy, and the squares np.sum
    # took of each: 3 grids at its peak
    peak, state = _heap_peak(lambda: make_worst(0.02))
    assert state.samples.size == 1_651_712
    assert peak < 1.5 * state.samples.nbytes


# --- the gaussian closed form summed in batches ------------------------------------
# double and tradeoff sum every run of nodes of many widths, the runs of
# one length as the rows of one array; conftest.oracle_gaussian_strength
# sums each width alone, a 1-D block at a time, and every F and G must
# match it to the bit.


def _hex_strengths(strengths):
    return [(s.quality_factor.hex(), s.precision.hex()) for s in strengths]


def _gaussian_widths(targets):
    """The gaussian widths double maps a target grid to."""
    return [1.0 / (math.sqrt(2.0) * _erfinv(target)) for target in parse_range(targets)]


def test_each_has_the_bits_of_the_list_form_on_the_near_cap_widths():
    # the 98,001 widths of double --family gaussian --g 0.01:0.99:0.00001,
    # and the arguments the gaussian closed form hands _each
    widths = np.array(_gaussian_widths("0.01:0.99:0.00001"))
    assert widths.size == 98_001
    for function, values in [
        (math.erfc, widths),
        (math.exp, -1.0 / (2.0 * widths * widths)),
        (math.expm1, -widths),
        (math.log, widths),
    ]:
        listed = np.array(list(map(function, values.tolist())), dtype=float)
        peak, each = _heap_peak(lambda: pointer._each(function, values))
        assert each.dtype == np.float64 and each.shape == values.shape
        assert each.tobytes() == listed.tobytes()
        # the values' list (8 B a pointer, 24 B a float) and the array took 40 B
        # a value; a second list of the results took it to 64 B
        assert peak < 48 * values.size


def _hex_arrays(quality, prec):
    return list(zip(map(float.hex, quality.tolist()), map(float.hex, prec.tolist())))


def _batched_gaussian(widths, spacing):
    return _hex_arrays(*pointer._family_strengths("gaussian", np.array(widths), spacing))


# a width below 8h sums every node of its grid, which reaches past 1 only where h > 1/64
_BATCHED_SPACINGS = [SPACING, *(2.0**-k for k in range(1, 7))]
_BATCHED_WIDTHS = [
    ("readme-targets", lambda h: _gaussian_widths("0.005:0.995:0.005"), "all"),
    ("fine-targets", lambda h: _gaussian_widths("0.001:0.999:0.001"), "all"),
    # below 8h every node is summed; from 8h up to 1/4 the grid ends
    # within 2 of 0 and its inner nodes are summed, up to 1/8 all within 1
    ("below-8h", lambda h: np.geomspace(h / 8.0, 8.0 * h, 40, endpoint=False).tolist(), "none"),
    ("within-2", lambda h: np.linspace(8.0 * h, 0.25, 40).tolist(), "none"),
    ("mixed", lambda h: np.linspace(0.01, 2.0, 300).tolist(), "some"),
]


@pytest.mark.parametrize(
    "widths, rows, spacing",
    [
        pytest.param(widths, rows, h, id=name if h == SPACING else f"{name}-h=2^-{round(-math.log2(h))}")
        for h in _BATCHED_SPACINGS
        for name, widths, rows in _BATCHED_WIDTHS
    ],
)
def test_batched_gaussian_strengths_have_the_bits_of_the_per_width_sums(widths, rows, spacing):
    widths = widths(spacing)
    if spacing == SPACING:  # rows: which widths' grids reach past 2 and sum their outermost 1/h nodes
        _, radii = pointer._gaussian_grid(np.array(widths), SPACING)
        outer = [m > 2 * round(1.0 / SPACING) for m in radii.tolist()]
        assert {"all": all(outer), "none": not any(outer), "some": 0 < sum(outer) < len(widths)}[rows]
    want = _hex_strengths(oracle_gaussian_strength(w, spacing) for w in widths)
    assert _batched_gaussian(widths, spacing) == want
    assert _hex_strengths(pointer._family_strength("gaussian", w, spacing) for w in widths) == want


def test_gaussian_double_sweep_has_the_bits_of_the_per_width_sums():
    targets = parse_range("0.001:0.999:0.001")
    want = _hex_strengths(oracle_gaussian_strength(w, SPACING) for w in _gaussian_widths("0.001:0.999:0.001"))
    assert _hex_arrays(*_target_strengths("gaussian", np.array(targets))) == want
    rows = double_violation_curve("gaussian", targets)
    assert [g.hex() for g, _, _ in rows] == [gp for _, gp in want]


def test_gaussian_tradeoff_past_a_block_a_unit_has_the_bits_of_the_per_width_sums():
    # at 2^-18 a unit holds 2^18 nodes, four blocks of _BLOCK_NODES, so each
    # row is summed a block at a time and its block sums added in order,
    # not pairwise as np.sum would add them over the whole row
    spacing = 2.0**-18
    assert round(1.0 / spacing) == 4 * pointer._BLOCK_NODES
    widths = [5e-5, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0]
    rows = tradeoff_curve("gaussian", widths, grid_spacing=spacing)
    want = [oracle_gaussian_strength(w, spacing) for w in widths]
    assert [(f.hex(), g.hex()) for _, f, g in rows] == _hex_strengths(want)


def test_gaussian_sweeps_refuse_the_first_refused_value_in_grid_order():
    # past the first chunk of 128 widths, a refusal mid-grid names its own
    # value, not a later one's, with the message each width gave alone
    cap = "needs a pointer grid of at least 33554432 nodes, over the cap of 16777216"
    grid = [0.5] * 200 + [0.3, 0.0001, 0.00005, 0.7]
    with pytest.raises(NodeCapError) as refused:
        double_violation_curve("gaussian", grid)
    assert str(refused.value) == f"target precision 0.0001 {cap}; use a target precision nearer the strong limit"
    too_narrow = (
        "gaussian width 1e-320 is too small for grid spacing 0.001953125: the pointer's norm underflows to 0; "
        "use a finer --spacing"
    )
    with pytest.raises(InvalidParameterError) as refused:
        tradeoff_curve("gaussian", [1.0] * 200 + [1e-320, 1e4])
    assert str(refused.value) == too_narrow
    with pytest.raises(NodeCapError) as refused:
        tradeoff_curve("gaussian", [1.0] * 200 + [1e4, 1e-320])
    assert str(refused.value) == f"gaussian width 10000.0 {cap}; use a gaussian width nearer the strong limit"


# --- every family's closed form over an array, against the per-value oracles ---------
# _family_strengths evaluates a family's (F, G) over a whole array of values
# with each check a mask; conftest.ORACLE_STRENGTHS evaluates one value at a
# time in Python floats, after that value's own checks.  Every F and G must
# match to the bit, and a grid must refuse its first refused value as that
# value's oracle refuses it.


def _oracle_outcome(family, value, spacing):
    """One value's oracle outcome: ("built", (F hex, G hex)), or its refusal (type, message)."""
    kind, result = _outcome(lambda: ORACLE_STRENGTHS[family](value, spacing))
    return (kind, (result.quality_factor.hex(), result.precision.hex())) if kind == "built" else (kind, result)


def _array_outcome(family, values, spacing):
    """_family_strengths over values: ("built", [(F hex, G hex), ...]), or its refusal (type, message)."""
    kind, result = _outcome(lambda: pointer._family_strengths(family, np.array(values, dtype=float), spacing))
    return (kind, _hex_arrays(*result)) if kind == "built" else (kind, result)


def _assert_matches_the_oracles(family, values, spacing=SPACING, alone=False):
    """The array form over values has each accepted value's oracle bits and refuses the first refused one as its oracle does.

    The values the oracles accept are also evaluated as one array of their
    own; with alone, each value is also evaluated as a one-value array and
    through _family_strength.  Returns the oracles' outcome kinds.
    """
    expected = [_oracle_outcome(family, v, spacing) for v in values]
    refused = [outcome for outcome in expected if outcome[0] != "built"]
    accepted = [v for v, outcome in zip(values, expected) if outcome[0] == "built"]
    got = _array_outcome(family, values, spacing)
    assert got == (refused[0] if refused else ("built", [bits for _, bits in expected])), (family, spacing)
    if accepted:
        want = [bits for kind, bits in expected if kind == "built"]
        assert _array_outcome(family, accepted, spacing) == ("built", want), (family, spacing)
    if alone:
        for value, outcome in zip(values, expected):
            assert _array_outcome(family, [value], spacing) == (
                outcome if outcome[0] != "built" else ("built", [outcome[1]])
            ), (family, value, spacing)
            one = _outcome(lambda: pointer._family_strength(family, value, spacing))
            if one[0] == "built":
                one = ("built", (one[1].quality_factor.hex(), one[1].precision.hex()))
            assert one == outcome, (family, value, spacing)
    return {kind if kind == "built" else kind.__name__ for kind, _ in expected}


# the values the README and the double targets give each family
_README_VALUES = {
    "square": ["1:3:0.25"],
    "gaussian": ["0.1:2:0.1"],
    "exponential": ["0.1:2:0.1"],
    "optimal": ["0.1:0.9:0.1", "0.005:0.995:0.005", "0.001:0.999:0.001"],
    "worst": ["0.01:0.99:0.01", "0.001:0.999:0.001"],
}


@pytest.mark.parametrize("family", _FAMILIES)
def test_closed_forms_have_the_bits_of_the_per_value_oracles_on_the_readme_grids(family):
    for values in _README_VALUES[family]:
        _assert_matches_the_oracles(family, parse_range(values))
    if family in ("square", "gaussian"):
        for targets in ("0.005:0.995:0.005", "0.001:0.999:0.001"):
            _assert_matches_the_oracles(family, [_family_parameter(family, t) for t in parse_range(targets)])


@pytest.mark.parametrize("family", _FAMILIES)
@pytest.mark.parametrize("k", range(6, 13))
def test_closed_forms_have_the_bits_of_the_per_value_oracles_at_every_spacing(family, k):
    spacing = 2.0**-k
    rng = np.random.default_rng(k)
    values = [_swept_parameter(family, spacing, u) for u in np.linspace(0.0, 1.0, 41).tolist() + rng.random(80).tolist()]
    assert _assert_matches_the_oracles(family, values, spacing) == {"built"}


def test_analytic_strengths_have_the_bits_of_the_per_value_oracle():
    rng = np.random.default_rng(7)
    for targets in (
        parse_range("0.005:0.995:0.005"),
        parse_range("0.001:0.999:0.001"),
        rng.random(2000).tolist(),
        [5e-324, 1e-300, 1e-17, 0.5, math.nextafter(1.0, 0.0), 1.0 - 2.0**-52],
    ):
        quality, prec = _target_strengths("analytic", np.array(targets))
        want = [oracle_analytic_strength(t) for t in targets]
        assert _hex_arrays(quality, prec) == _hex_strengths(want)


def _bits(value: float) -> int:
    return int(np.float64(value).view(np.int64))


def _from_bits(bits: int) -> float:
    return float(np.int64(bits).view(np.float64))


def _flip(kind, lo: float, hi: float) -> float:
    """The least positive float v in (lo, hi] whose oracle outcome kind(v) differs from kind(lo), by bisection on the bits."""
    side = kind(lo)
    a, b = _bits(lo), _bits(hi)
    assert kind(hi) != side
    while b - a > 1:
        mid = (a + b) // 2
        if kind(_from_bits(mid)) == side:
            a = mid
        else:
            b = mid
    return _from_bits(b)


def _around(edge: float, ulps: int = 3) -> list[float]:
    return [_from_bits(_bits(edge) + d) for d in range(-ulps, ulps + 1)]


_REASONS = ("over the cap", "underflows", "to normalize", "too coarse", "must be positive", "must lie in")


def _check_edges(family, spacing):
    """Values where a family's oracle outcome changes: the node cap, and the 50h limit or the narrowness checks."""

    def kind(value):
        outcome = _oracle_outcome(family, value, spacing)
        return "built" if outcome[0] == "built" else next(r for r in _REASONS if r in outcome[1])

    if family in ("optimal", "worst"):
        return [_flip(kind, 1e-4, 0.5)]
    cap = _flip(kind, 1.0, 1e6)
    if family == "square":
        return [cap, _flip(kind, 20.0 * spacing, 60.0 * spacing)]
    # the norm underflows below the first edge; between it and the last, some norms are too small
    underflow = _flip(kind, 1e-4 * spacing, spacing)
    return [cap, underflow] + ([] if kind(underflow) == "built" else [_flip(kind, underflow, spacing)])


@pytest.mark.parametrize("family", _FAMILIES)
@pytest.mark.parametrize("spacing", [2.0**-6, SPACING])
def test_closed_forms_match_the_oracles_within_ulps_of_each_check_boundary(family, spacing):
    values = [v for edge in _check_edges(family, spacing) for v in _around(edge)]
    values += [0.0, -0.0, 5e-324, -5e-324, -1.0, math.nan, math.inf, -math.inf, math.nextafter(1.0, 0.0), 1.0]
    seen = _assert_matches_the_oracles(family, values, spacing, alone=True)
    assert seen == {
        "square": {"built", "InvalidParameterError", "NodeCapError"},
        "gaussian": {"built", "InvalidParameterError", "NodeCapError"},
        "exponential": {"built", "InvalidParameterError", "NodeCapError"},
        "optimal": {"built", "InvalidParameterError", "NodeCapError"},
        "worst": {"built", "InvalidParameterError", "NodeCapError"},
    }[family]


def test_unit_pairs_clamp_and_refuse_as_the_python_float_oracle_does():
    # each tolerance's edge +-2 ulps, the clamp's ends, nan, and where F^2 + 1 first exceeds 1 + 1e-14 as F grows
    singles = [v for edge in (-1e-9, 1.0 + 1e-9, 0.0, 1.0) for v in _around(edge, 2)] + [-0.0, math.nan, 0.5]
    circle = _flip(lambda f: _outcome(lambda: _oracle_unit_strength(f, 1.0))[0] == "built", 1e-8, 1e-6)
    pairs = [(f, g) for f in singles for g in (0.0, 0.6, 1.0)] + [(g, f) for f in singles for g in (0.0, 0.6)]
    pairs += [(f, 1.0) for f in _around(circle)] + [(0.6, 0.8), (0.9, 0.9)]
    seen = set()
    for f, g in pairs:
        want = _outcome(lambda: _oracle_unit_strength(f, g))
        got = _outcome(lambda: pointer._unit_pairs(np.array([f]), np.array([g])))
        one = _outcome(lambda: MeasurementStrength(f, g))
        if want[0] == "built":
            assert got[0] == "built" and one[0] == "built", (f, g, got, one)
            assert _hex_arrays(*got[1]) == _hex_strengths([want[1]]) == _hex_strengths([one[1]]), (f, g)
        else:
            assert got == want == one, (f, g)
        seen.add(want[0] if want[0] == "built" else want[0].__name__)
    assert seen == {"built", "InvalidStateError", "PhysicalityError"}
    # over a grid, the first refused pair is refused, whichever check refuses it
    quality = np.array([0.6, 0.9, 0.5, -1.0, 0.6])
    prec = np.array([0.8, 0.9, 1.5, 0.5, 0.8])
    for start in range(4):
        grid = zip(quality[start:].tolist(), prec[start:].tolist())
        want = _outcome(lambda: [_oracle_unit_strength(f, g) for f, g in grid])
        assert _outcome(lambda: pointer._unit_pairs(quality[start:], prec[start:])) == want


@pytest.mark.parametrize("family", ["optimal", "square"])
def test_an_unphysical_closed_form_is_refused_naming_its_pair(monkeypatch, family):
    # the F^2 + G^2 <= 1 check holds for every value of a sweep, whichever closed form gave it
    closed_form = pointer._FAMILY_STRENGTHS[family]

    def unphysical(values, grid_spacing):
        quality, prec = (a.copy() for a in closed_form(values, grid_spacing))
        quality[5], prec[5] = 0.9, 0.9
        quality[7] = 1.5  # refused too, but later in the grid
        return quality, prec

    monkeypatch.setitem(pointer._FAMILY_STRENGTHS, family, unphysical)
    message = f"unphysical strength: F^2 + G^2 = {0.9 * 0.9 + 0.9 * 0.9!r} > 1"
    values = parse_range("0.1:0.9:0.1") if family == "optimal" else parse_range("1:3:0.25")
    with pytest.raises(PhysicalityError) as refused:
        tradeoff_curve(family, values)
    assert str(refused.value) == message
    with pytest.raises(PhysicalityError) as refused:
        double_violation_curve(family, parse_range("0.1:0.9:0.1"))
    assert str(refused.value) == message


def test_sweeps_refuse_their_first_refused_value_in_grid_order():
    def refusal(family, value):
        return _oracle_outcome(family, value, SPACING)

    cases = [
        # a square narrower than 50h, an exponential too narrow to resolve, each before a value past the cap
        (lambda: tradeoff_curve("square", [1.5] * 5 + [0.05, 1e6, 2.0]), refusal("square", 0.05)),
        (lambda: tradeoff_curve("square", [1.5] * 5 + [1e6, 0.05, 2.0]), refusal("square", 1e6)),
        (lambda: tradeoff_curve("exponential", [1.0] * 5 + [1e-6, 1e6, 2.0]), refusal("exponential", 1e-6)),
        (lambda: tradeoff_curve("exponential", [1.0] * 5 + [1e6, 1e-6]), refusal("exponential", 1e6)),
        (lambda: tradeoff_curve("worst", [0.5] * 5 + [0.0015, 1.5]), refusal("worst", 0.0015)),
        (lambda: tradeoff_curve("optimal", [0.5] * 5 + [1.5, 0.0015]), refusal("optimal", 1.5)),
    ]
    cap = "needs a pointer grid of at least {} nodes, over the cap of 16777216; use a target precision nearer the strong limit"
    for family, nodes in (("optimal", 3300987904), ("square", 33555456), ("gaussian", 33554432)):
        # a target past the node cap, named as the target precision, before an out-of-range one
        message = f"target precision 1e-05 {cap.format(nodes)}"
        cases.append((lambda family=family: double_violation_curve(family, [0.5] * 5 + [0.00001, 0.5]), (NodeCapError, message)))
    for family, nodes in (("optimal", 1100329984), ("square", 33555456), ("gaussian", 33554432)):
        # the refusal's index picks the target it names: the first past the cap, with its own node count
        message = f"target precision 3e-05 {cap.format(nodes)}"
        cases.append((lambda family=family: double_violation_curve(family, [0.9, 0.5, 0.2, 3e-5, 1e-5]), (NodeCapError, message)))
    cases.append(
        (
            lambda: double_violation_curve("optimal", [0.5] * 5 + [1.5, 0.00001]),
            (InvalidParameterError, "precision grid values must lie in (0, 1), got 1.5"),
        )
    )
    for call, want in cases:
        assert want[0] != "built"
        assert _outcome(call) == want


@pytest.mark.parametrize("size", [1, 7, 2**16, 2**16 + 1, 3 * 2**16 + 5, 1_000_003])
def test_sum_of_squares_has_the_bits_of_np_sum(size):
    rng = np.random.default_rng(size)
    samples = rng.random(size) * rng.choice([1e-3, 1.0, 1e5], size)
    assert pointer._sum_of_squares(samples) == float(np.sum(samples * samples))


# --- worst pointers -------------------------------------------------------------


def test_worst_pointer_has_zero_quality():
    state = make_worst(0.5)
    assert quality_factor(state) == pytest.approx(0.0, abs=1e-9)


def test_worst_pointer_precision_recomputed_after_zeroing():
    # surviving even intervals form a geometric series with ratio k^2,
    # so the renormalized mass on (-1,1) is (1-k^2)/(1+k^2)
    target = 0.5
    k = (1.0 - target) / (1.0 + target)
    expected = (1.0 - k * k) / (1.0 + k * k)
    state = make_worst(target)
    assert precision(state) == pytest.approx(expected, abs=1e-9)
    assert precision(state) != pytest.approx(target, abs=1e-3)


def test_worst_pointer_concentrates_as_target_grows():
    state = make_worst(0.99)
    assert precision(state) > 0.999


# --- state and strength invariants ----------------------------------------------


def _family_representatives():
    return [
        make_square(0.8),
        make_square(2.5),
        make_gaussian(1.5),
        make_exponential(1.0),
        make_optimal(0.3),
        make_optimal(0.8, "smooth_bump"),
        make_worst(0.6),
    ]


def test_constructed_pointers_are_normalized_and_symmetric():
    for state in _family_representatives():
        mass = float(np.sum(state.samples**2) * state.grid_spacing)
        assert mass == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(
            np.abs(state.samples), np.abs(state.samples[::-1]), atol=1e-9
        )
        # readings are nodes displaced by +/-1: none is 0, so sign(q) is never tied
        for shift in (1.0, -1.0):
            assert np.all(state.positions + shift != 0.0)


def test_pointer_state_rejects_invariant_violations():
    cells = round(1.0 / SPACING)
    q = (np.arange(2 * cells) - cells + 0.5) * SPACING
    good = np.exp(-q * q)
    good /= math.sqrt(float(np.sum(good**2)) * SPACING)
    state = PointerState(good, SPACING)  # sanity: this one is fine
    assert state.grid_origin == float(q[0])
    with pytest.raises(InvalidStateError):
        PointerState(2.0 * good, SPACING)
    with pytest.raises(InvalidStateError):
        bad = good.copy()
        bad[: cells // 2] *= 1.5
        PointerState(bad / math.sqrt(float(np.sum(bad**2)) * SPACING), SPACING)
    with pytest.raises(InvalidStateError):
        PointerState(good.astype(complex), SPACING)
    with pytest.raises(InvalidStateError):
        bad = good.copy()
        bad[[0, -1]] = np.nan
        PointerState(bad, SPACING)
    # an odd node count would put a node on q = 0
    odd = np.concatenate([good[:cells], [1.0], good[cells:]])
    with pytest.raises(InvalidStateError):
        PointerState(odd / math.sqrt(float(np.sum(odd**2)) * SPACING), SPACING)
    # the origin follows from the node count, so a third argument is refused
    with pytest.raises(TypeError):
        PointerState(good, SPACING, float(q[0]))


def test_pointer_state_copies_all_but_frozen_owned_arrays():
    state = make_gaussian(1.0)
    source = np.array(state.samples)
    copied = PointerState(source, SPACING)
    assert copied.samples is not source and source.flags.writeable
    assert not copied.samples.flags.writeable
    frozen = np.array(state.samples)
    frozen.flags.writeable = False
    assert PointerState(frozen, SPACING).samples is frozen
    view = np.array(state.samples)[:]
    view.flags.writeable = False
    assert PointerState(view, SPACING).samples is not view


def test_measurement_strength_validation():
    MeasurementStrength(0.6, 0.8)
    MeasurementStrength(0.0, 1.0)
    with pytest.raises(PhysicalityError):
        MeasurementStrength(0.9, 0.9)
    with pytest.raises(InvalidStateError, match=r"^quality factor -0\.1 outside \[0, 1\] beyond tolerance$"):
        MeasurementStrength(-0.1, 0.5)
    with pytest.raises(InvalidStateError, match=r"^precision 1\.2 outside \[0, 1\] beyond tolerance$"):
        MeasurementStrength(0.5, 1.2)
    # a pair within the range tolerance is clamped before it enters a chain
    assert MeasurementStrength(1.0 + 1e-12, 0.0).quality_factor == 1.0
    # F^2 + G^2 - 1 = 9.98e-10, which once gave joint cells of -7.8e-12
    with pytest.raises(PhysicalityError):
        MeasurementStrength(1.0, 3.159e-5)
    quality, _ = _target_strengths("analytic", np.array([0.8]))
    assert quality[0] == pytest.approx(0.6, abs=1e-15)


def test_strength_of_gates_a_hand_built_pointer_as_measurement_strength_does():
    # scaling a frontier grid's samples by sqrt(s) scales its F and G by s and
    # F^2 + G^2 (1 - 1e-16 or so) by s^2; PointerState admits any s within 1e-9
    samples = np.array(make_optimal(0.6).samples)
    for s in (1.0 + 2e-15, 1.0 + 1e-14):
        state = PointerState(samples * math.sqrt(s), SPACING)
        for measure in (strength_of, quality_factor, precision):
            if s < 1.0 + 5e-15:
                measure(state)
            else:
                with pytest.raises(PhysicalityError, match="unphysical strength"):
                    measure(state)


# --- trade-off curves -------------------------------------------------------------


def test_tradeoff_curve_optimal_family():
    rows = tradeoff_curve("optimal", [0.1 * k for k in range(1, 10)])
    assert len(rows) == 9
    for _, fq, gp in rows:
        assert fq * fq + gp * gp == pytest.approx(1.0, abs=1e-6)


def test_tradeoff_curve_square_family():
    rows = tradeoff_curve("square", [1.25, 1.5, 2.0, 3.0])
    for _, fq, gp in rows:
        assert gp == pytest.approx(1.0 - fq, abs=1e-12)
    qualities = [fq for _, fq, _ in rows]
    assert qualities == sorted(qualities)


def test_gaussian_below_optimal_at_equal_quality():
    rows = tradeoff_curve("gaussian", [0.5, 1.0, 1.5, 2.0, 3.0])
    for _, fq, gp in rows:
        assert gp < math.sqrt(1.0 - fq * fq)


def test_tradeoff_curve_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        tradeoff_curve("triangular", [1.0])
    with pytest.raises(InvalidParameterError):
        tradeoff_curve("square", [])


def test_csv_surfaces():
    rows = tradeoff_curve("optimal", [0.5])
    text = tradeoff_to_csv("optimal", rows)
    assert text.splitlines()[0] == TRADEOFF_CSV_HEADER
    assert text.splitlines()[1].startswith("optimal,0.5,")

    state = make_square(1.5)
    dump = "".join(samples_to_csv(state))
    lines = dump.splitlines()
    assert lines[0] == POINTER_CSV_HEADER
    assert len(lines) == state.samples.size + 1
