import math
import tracemalloc

import numpy as np
import pytest
from conftest import oracle_make_worst, oracle_optimal_from_central, oracle_precision, value_at

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
    precision,
    quality_factor,
    strength_of,
    tradeoff_curve,
)
from weakbell import pointer
from weakbell.bell import double_violation_curve
from weakbell.cli import parse_range
from weakbell.pointer import (
    DEFAULT_GRID_SPACING,
    MAX_POINTER_NODES,
    POINTER_CSV_HEADER,
    TRADEOFF_CSV_HEADER,
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


# --- frontier (F, G) from rows ----------------------------------------------------
# double --family optimal and tradeoff --family optimal|worst read F and G
# from the rows; the materialised grids and the per-node builders are the
# oracles.

_FRONTIER_TOL = 1e-14


def _rows_strength(central, target, spacing):
    return pointer._rows_strength(*pointer._frontier_rows(central, target, spacing), spacing)


def test_frontier_rows_agree_with_the_optimal_grid_on_the_cli_sweep():
    for target in parse_range("0.005:0.995:0.005"):
        fq, gp = pointer._frontier_strength(target)
        state = make_optimal(target)
        assert abs(fq - quality_factor(state)) <= _FRONTIER_TOL, target
        assert abs(gp - precision(state)) <= _FRONTIER_TOL, target


def test_frontier_rows_agree_with_the_worst_grid():
    for target in parse_range("0.1:0.9:0.1"):
        fq, gp = pointer._frontier_strength(target, worst=True)
        assert fq == 0.0
        assert abs(gp - precision(make_worst(target))) <= _FRONTIER_TOL, target


@pytest.mark.parametrize("spacing", [1.0 / 64, 1.0 / 1024])
@pytest.mark.parametrize("profile", ["flat", "smooth_bump"])
def test_frontier_rows_agree_with_the_per_node_construction(spacing, profile):
    targets = (0.005, 0.05, 0.3, 0.8, 0.995) if spacing == 1.0 / 64 else (0.05, 0.3, 0.8, 0.995)
    for target in targets:
        central = _central_profile(profile, spacing)
        oracle = oracle_optimal_from_central(central, target, spacing)
        fq, gp = _rows_strength(central, target, spacing)
        assert abs(fq - quality_factor(oracle)) <= _FRONTIER_TOL, target
        assert abs(gp - oracle_precision(oracle)) <= _FRONTIER_TOL, target
        if profile == "flat":
            assert pointer._frontier_strength(target, grid_spacing=spacing) == (fq, gp)


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
        assert expected[0] is InvalidParameterError
        assert _refusal(lambda: pointer._frontier_strength(target, worst=worst)) == expected


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
            refused = _refusal(lambda: _rows_strength(central, 0.5, SPACING))
        assert kind in (InvalidParameterError, InvalidStateError)
        # the same error type, and a norm failure named as one
        assert refused[0] is kind
        assert ("norm" in refused[1]) == ("norm" in message), (message, refused[1])
        # a non-finite mass is named as the fault, not found later as a bad norm
        if central is nan or central is huge or central is infinite:
            assert kind is InvalidParameterError and "mass" in message and "mass" in refused[1]


def test_builders_refuse_grids_past_the_node_cap_before_allocating():
    # at the default spacing G = 0.002 fits (16.5 M nodes) and G = 0.0015 (22 M) does not
    cells = round(1.0 / SPACING)
    n_intervals = pointer._envelope_intervals(0.002, cells)
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
    with pytest.raises(PhysicalityError):
        MeasurementStrength(-0.1, 0.5)
    with pytest.raises(PhysicalityError):
        MeasurementStrength(0.5, 1.2)
    assert MeasurementStrength.optimal(0.8).quality_factor == pytest.approx(0.6, abs=1e-15)


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
    dump = samples_to_csv(state)
    lines = dump.splitlines()
    assert lines[0] == POINTER_CSV_HEADER
    assert len(lines) == state.samples.size + 1
