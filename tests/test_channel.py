import math

import numpy as np
import pytest

from conftest import (
    collapse_bloch,
    decohere,
    kraus_at_reading,
    on_second_qubit,
    oracle_reading_cdf,
    outcome_probabilities,
    projectors,
    random_density,
    random_direction,
    random_strength,
    sign_and_bound,
    value_at,
    weak_conditional,
    weak_unconditional,
)

from weakbell import (
    BobStage,
    Direction,
    InvalidParameterError,
    InvalidStateError,
    MeasurementStrength,
    PhysicalityError,
    make_exponential,
    make_gaussian,
    make_optimal,
    make_square,
    precision,
    quality_factor,
    singlet,
    strength_of,
)
from weakbell.channel import DIR_X, DIR_Z, IDENTITY_2, PAULI_XYZ, strength_pair


# --- projectors -----------------------------------------------------------------


def test_projectors_along_z_and_x():
    pp, pm = projectors(DIR_Z)
    np.testing.assert_allclose(pp, np.diag([1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(pm, np.diag([0.0, 1.0]), atol=1e-15)
    pp, pm = projectors(DIR_X)
    assert pp[0, 1] == pytest.approx(0.5)
    assert pm[0, 1] == pytest.approx(-0.5)


def test_projectors_idempotent_and_complete():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pp, pm = projectors(random_direction(rng))
        np.testing.assert_allclose(pp @ pp, pp, atol=1e-12)
        np.testing.assert_allclose(pm @ pm, pm, atol=1e-12)
        np.testing.assert_allclose(pp + pm, IDENTITY_2, atol=1e-12)
        np.testing.assert_allclose(pp @ pm, np.zeros((2, 2)), atol=1e-12)


def test_direction_must_be_unit():
    with pytest.raises(InvalidParameterError):
        Direction(1.0, 1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        Direction(0.0, 0.0, 2.0)


@pytest.mark.parametrize("components", [(math.nan, 0.0, 0.0), (0.0, math.nan, 1.0), (0.0, 0.0, math.nan)])
def test_direction_refuses_nan(components):
    # |d| - 1 is NaN, which no tolerance comparison may accept
    with pytest.raises(InvalidParameterError):
        Direction(*components)


# --- unconditional channel ---------------------------------------------------------


def test_weak_unconditional_identity_and_full_decoherence():
    rng = np.random.default_rng(2)
    rho = random_density(rng)
    d = random_direction(rng)
    np.testing.assert_allclose(weak_unconditional(rho, d, 1.0), rho, atol=1e-14)
    decohered = weak_unconditional(rho, d, 0.0)
    pp, pm = projectors(d)
    coherence = pp @ decohered @ pm
    assert float(np.max(np.abs(coherence))) < 1e-12


def test_weak_unconditional_trace_and_positivity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rho = random_density(rng)
        d = random_direction(rng)
        out = weak_unconditional(rho, d, float(rng.random()))
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert float(np.min(np.linalg.eigvalsh(out))) >= -1e-10


def test_weak_unconditional_rejects_bad_quality():
    with pytest.raises(InvalidParameterError):
        weak_unconditional(np.eye(2) / 2, DIR_Z, 1.5)


@pytest.mark.parametrize(
    "pointer",
    [
        make_square(1.5),
        make_gaussian(1.2),
        make_exponential(0.8),
        make_optimal(0.8),
        make_optimal(0.4, "smooth_bump"),
    ],
    ids=["square", "gaussian", "exponential", "optimal", "bump"],
)
def test_channel_matches_kraus_integration(pointer):
    # independent oracle: integrate K_q rho K_q over the reading grid
    rng = np.random.default_rng(4)
    rho = random_density(rng)
    d = random_direction(rng)
    h = pointer.grid_spacing
    lo = pointer.grid_origin - 1.0
    n = pointer.samples.size + 2 * round(1.0 / h)
    integrated = np.zeros((2, 2), dtype=complex)
    for j in range(n):
        q = lo + j * h
        k = kraus_at_reading(pointer, d, q)
        integrated += k @ rho @ k.conj().T * h
    expected = weak_unconditional(rho, d, quality_factor(pointer))
    np.testing.assert_allclose(integrated, expected, atol=1e-8)


# --- outcome probabilities -----------------------------------------------------------


def test_outcome_probabilities_basics():
    up = np.diag([1.0, 0.0]).astype(complex)
    for g in (0.0, 0.3, 1.0):
        p_plus, p_minus = outcome_probabilities(up, DIR_Z, g)
        assert p_plus == pytest.approx((1.0 + g) / 2.0, abs=1e-14)
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-14)
    mixed = np.eye(2, dtype=complex) / 2.0
    rng = np.random.default_rng(5)
    for g in (0.0, 0.5, 1.0):
        p_plus, _ = outcome_probabilities(mixed, random_direction(rng), g)
        assert p_plus == pytest.approx(0.5, abs=1e-14)


def test_outcome_probabilities_strong_limit_is_born_rule():
    rng = np.random.default_rng(6)
    rho = random_density(rng)
    d = random_direction(rng)
    pp, _ = projectors(d)
    p_plus, _ = outcome_probabilities(rho, d, 1.0)
    assert p_plus == pytest.approx(float(np.trace(pp @ rho).real), abs=1e-14)


# --- conditional channel ---------------------------------------------------------------


def test_conditional_consistency_identities():
    rng = np.random.default_rng(7)
    for _ in range(30):
        rho = random_density(rng)
        d = random_direction(rng)
        s = random_strength(rng)
        plus = weak_conditional(rho, d, s, 1)
        minus = weak_conditional(rho, d, s, -1)
        np.testing.assert_allclose(
            plus + minus, weak_unconditional(rho, d, s.quality_factor), atol=1e-14
        )
        p_plus, p_minus = outcome_probabilities(rho, d, s.precision)
        assert np.trace(plus).real == pytest.approx(p_plus, abs=1e-14)
        assert np.trace(minus).real == pytest.approx(p_minus, abs=1e-14)
        assert float(np.min(np.linalg.eigvalsh(plus))) >= -1e-10
        assert float(np.min(np.linalg.eigvalsh(minus))) >= -1e-10


def test_conditional_rejects_unphysical_strength():
    with pytest.raises(PhysicalityError):
        weak_conditional(np.eye(2) / 2, DIR_Z, MeasurementStrength(0.9, 0.9), 1)
    with pytest.raises(InvalidParameterError):
        weak_conditional(np.eye(2) / 2, DIR_Z, MeasurementStrength(0.6, 0.8), 0)


# --- per-reading Kraus operators ----------------------------------------------------------


def test_kraus_strong_pointer_projects():
    pointer = make_square(1.0)
    k = kraus_at_reading(pointer, DIR_Z, 0.5)
    # reading 0.5 is reachable only through the +1 displaced branch
    assert abs(k[1, 1]) == 0.0
    assert abs(k[0, 0]) > 0.0


def test_kraus_completeness():
    pointer = make_optimal(0.7)
    d = Direction(0.0, 1.0, 0.0)
    h = pointer.grid_spacing
    lo = pointer.grid_origin - 1.0
    n = pointer.samples.size + 2 * round(1.0 / h)
    total = np.zeros((2, 2), dtype=complex)
    for j in range(n):
        k = kraus_at_reading(pointer, d, lo + j * h)
        total += k.conj().T @ k * h
    np.testing.assert_allclose(total, IDENTITY_2, atol=1e-8)


def test_kraus_positive_readings_reproduce_outcome_probability():
    rng = np.random.default_rng(8)
    pointer = make_gaussian(1.3)
    rho = random_density(rng)
    d = random_direction(rng)
    h = pointer.grid_spacing
    lo = pointer.grid_origin - 1.0
    n = pointer.samples.size + 2 * round(1.0 / h)
    kept = np.zeros((2, 2), dtype=complex)
    for j in range(n):
        q = lo + j * h
        if q <= 0:
            continue
        k = kraus_at_reading(pointer, d, q)
        kept += k @ rho @ k.conj().T * h
    p_plus, _ = outcome_probabilities(rho, d, precision(pointer))
    assert float(np.trace(kept).real) == pytest.approx(p_plus, abs=1e-8)
    # the whole post-selected state, not just its trace, is the conditional channel
    np.testing.assert_allclose(kept, weak_conditional(rho, d, strength_of(pointer), 1), rtol=0.0, atol=1e-8)


def test_kraus_outside_domain_is_zero():
    pointer = make_square(1.0)
    k = kraus_at_reading(pointer, DIR_Z, 1e6)
    np.testing.assert_allclose(k, np.zeros((2, 2)), atol=0.0)


@pytest.mark.parametrize(
    "pointer",
    [make_optimal(0.8), make_gaussian(1.2), make_square(1.5)],
    ids=["optimal", "gaussian", "square"],
)
def test_bloch_collapse_matches_kraus_product(pointer):
    # K rho K / tr(K rho K) from the 2x2 Kraus operator, against the
    # closed-form Bloch update the reading-level oracle collapses with, on
    # random states and sampled readings
    rng = np.random.default_rng(45)
    states = [random_density(rng) for _ in range(300)]
    directions = [random_direction(rng) for _ in states]
    nodes = np.searchsorted(oracle_reading_cdf(pointer), rng.random(len(states)), side="right")
    readings = pointer.positions[nodes] + rng.choice([-1.0, 1.0], size=len(states))

    def bloch(rho):
        return np.array([np.trace(rho @ s).real for s in PAULI_XYZ])

    expected = []
    for rho, d, q in zip(states, directions, readings):
        kraus = kraus_at_reading(pointer, d, q)
        collapsed = kraus @ rho @ kraus
        expected.append(bloch(collapsed) / np.trace(collapsed).real)
    got = collapse_bloch(
        np.array([bloch(rho) for rho in states]).T,
        np.array([d.vector for d in directions]).T,
        [value_at(pointer, q - 1.0) for q in readings],
        [value_at(pointer, q + 1.0) for q in readings],
    )
    assert got.shape == (3, len(states))
    np.testing.assert_allclose(got, np.array(expected).T, rtol=0.0, atol=1e-12)


# --- decoherence -----------------------------------------------------------------------


def test_decohere_fixes_diagonal_states_and_is_idempotent():
    rng = np.random.default_rng(9)
    d = random_direction(rng)
    pp, pm = projectors(d)
    diag = 0.3 * pp + 0.7 * pm
    np.testing.assert_allclose(decohere(diag, d), diag, atol=1e-12)
    for _ in range(10):
        rho = random_density(rng)
        once = decohere(rho, d)
        np.testing.assert_allclose(decohere(once, d), once, atol=1e-12)


# --- two-qubit embedding -----------------------------------------------------------------


def test_on_second_qubit_identity_and_no_signalling():
    rng = np.random.default_rng(10)
    rho4 = random_density(rng, dim=4)
    np.testing.assert_allclose(on_second_qubit(lambda r: r, rho4), rho4, atol=1e-15)
    d = random_direction(rng)
    out = on_second_qubit(lambda r: weak_unconditional(r, d, 0.37), rho4)
    reduced_before = rho4.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    reduced_after = out.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    np.testing.assert_allclose(reduced_after, reduced_before, atol=1e-12)


def test_on_second_qubit_strong_decoherence_of_singlet():
    out = on_second_qubit(lambda r: decohere(r, DIR_Z), singlet())
    expected = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_on_second_qubit_rejects_wrong_dimension():
    with pytest.raises(InvalidStateError):
        on_second_qubit(lambda r: r, np.eye(2) / 2)


# --- distinguishability --------------------------------------------------------------------
# sign_and_bound evaluates (1+G)/2 and (1 + sqrt(1-F^2))/2 on a strength's (F, G)


def test_distinguishability_saturates_for_frontier_strengths():
    for g in (0.2, 0.5, 0.8):
        sign, bound = sign_and_bound(MeasurementStrength.optimal(g))
        assert sign == pytest.approx(bound, abs=1e-9)


def test_distinguishability_refuses_a_pointer_grid():
    # a grid's (F, G) is strength_of(grid); strength_pair and BobStage refuse the grid itself
    with pytest.raises(InvalidParameterError, match="strength_of"):
        strength_pair(make_optimal(0.5))
    with pytest.raises(InvalidParameterError, match="strength_of"):
        BobStage(DIR_Z, DIR_X, make_optimal(0.5))
    with pytest.raises(PhysicalityError):
        MeasurementStrength(0.9, 0.9)


def test_distinguishability_square_and_blind_cases():
    sign, bound = sign_and_bound(MeasurementStrength(1.0 / 3.0, 2.0 / 3.0))
    assert sign == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert bound == pytest.approx((1.0 + math.sqrt(8.0 / 9.0)) / 2.0, abs=1e-12)
    assert sign < bound
    sign, bound = sign_and_bound(MeasurementStrength(1.0, 0.0))
    assert sign == pytest.approx(0.5, abs=1e-15)
    assert bound >= 0.5


def test_distinguishability_sign_never_beats_bound():
    rng = np.random.default_rng(11)
    for _ in range(50):
        sign, bound = sign_and_bound(random_strength(rng))
        assert sign <= bound + 1e-12
