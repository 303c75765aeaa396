import itertools
import math

import numpy as np
import pytest

from conftest import (
    enumerate_chain_state,
    oracle_chain_chsh,
    random_density,
    random_direction,
    random_stage,
    random_strength,
    spin_operator,
    steered_state,
    triple_probability_oracle,
)

from weakbell import (
    BellChainConfig,
    BobStage,
    Direction,
    InvalidParameterError,
    InvalidStateError,
    MeasurementStrength,
    PhysicalityError,
    chsh,
    correlation_table,
    double_violation_curve,
    make_optimal,
    positivity_bound_scan,
    sequential_average_state,
    singlet,
    tangent_geometry,
    triple_probability,
    tsirelson_alice,
    tsirelson_bob,
    unbiased_triple_scan,
)
from weakbell.bell import (
    DOUBLE_CSV_HEADER,
    TripleGeometry,
    _strength_for_target,
    double_curve_to_csv,
    protocol_alice,
    protocol_bob,
)
from weakbell.channel import DIR_X, DIR_Z, PAULI_XYZ

SQ2 = math.sqrt(2.0)

OUTCOMES = [(a, b1, b2) for a in (1, -1) for b1 in (1, -1) for b2 in (1, -1)]
INPUTS = [(x, y1, y2) for x in (0, 1) for y1 in (0, 1) for y2 in (0, 1)]


def random_geometry(rng) -> TripleGeometry:
    return TripleGeometry(
        alice=(random_direction(rng), random_direction(rng)),
        first=(random_direction(rng), random_direction(rng)),
        second=(random_direction(rng), random_direction(rng)),
    )


# --- singlet and steering -------------------------------------------------------


def test_singlet_correlations():
    state = singlet()
    e_zz = correlation_table(state, (DIR_Z, DIR_X), (DIR_Z, DIR_X))
    assert e_zz[0, 0] == pytest.approx(-1.0, abs=1e-12)
    assert e_zz[0, 1] == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(20):
        u, v = random_direction(rng), random_direction(rng)
        observable = np.kron(spin_operator(u), spin_operator(v))
        got = float(np.trace(state @ observable).real)
        assert got == pytest.approx(-float(np.dot(u.vector, v.vector)), abs=1e-12)


def test_steered_state_matches_projection_oracle():
    # oracle: project Alice's side of the singlet and trace her out
    rng = np.random.default_rng(1)
    state = singlet()
    for _ in range(10):
        u = random_direction(rng)
        for outcome in (1, -1):
            proj = (np.eye(2, dtype=complex) + outcome * spin_operator(u)) / 2.0
            big = np.kron(proj, np.eye(2, dtype=complex))
            collapsed = big @ state @ big
            reduced = collapsed[:2, :2] + collapsed[2:, 2:]
            reduced = reduced / np.trace(reduced).real
            np.testing.assert_allclose(steered_state(u, outcome), reduced, atol=1e-12)
            assert np.trace(steered_state(u, outcome)).real == pytest.approx(1.0, abs=1e-14)


def test_steered_state_basics():
    np.testing.assert_allclose(steered_state(DIR_Z, 1), np.diag([0.0, 1.0]), atol=1e-15)
    with pytest.raises(InvalidParameterError):
        steered_state(DIR_Z, 2)


# --- the triple probability -------------------------------------------------------


def test_triple_probability_agrees_with_state_propagation_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        geometry = random_geometry(rng)
        strength = random_strength(rng)
        x, y1, y2 = rng.integers(0, 2, size=3)
        for a, b1, b2 in OUTCOMES:
            direct = triple_probability(a, b1, b2, x, y1, y2, geometry, strength)
            oracle = triple_probability_oracle(a, b1, b2, x, y1, y2, geometry, strength)
            worst = max(worst, abs(direct - oracle))
    assert worst < 1e-10


def test_triple_probability_normalization_and_no_signalling():
    rng = np.random.default_rng(3)
    for _ in range(20):
        geometry = random_geometry(rng)
        strength = random_strength(rng)
        for x, y1, y2 in INPUTS:
            total = sum(
                triple_probability(a, b1, b2, x, y1, y2, geometry, strength)
                for a, b1, b2 in OUTCOMES
            )
            assert total == pytest.approx(1.0, abs=1e-12)
        # Bob's marginal must not depend on Alice's input, and vice versa
        for _, b1, b2 in OUTCOMES:
            bob_marginal = {
                (x, y1, y2): sum(
                    triple_probability(aa, b1, b2, x, y1, y2, geometry, strength)
                    for aa in (1, -1)
                )
                for x, y1, y2 in INPUTS
            }
            for y1 in (0, 1):
                for y2 in (0, 1):
                    assert bob_marginal[(0, y1, y2)] == pytest.approx(
                        bob_marginal[(1, y1, y2)], abs=1e-12
                    )
        alice_marginal = {
            (x, y1, y2): sum(
                triple_probability(a, b1, b2, x, y1, y2, geometry, strength)
                for a in (1, -1)
                for b1 in (1, -1)
                for b2 in (1, -1)
            )
            for x, y1, y2 in INPUTS
        }
        for x in (0, 1):
            values = [alice_marginal[(x, y1, y2)] for y1 in (0, 1) for y2 in (0, 1)]
            assert max(values) - min(values) < 1e-12


def test_triple_probability_degenerate_strengths():
    rng = np.random.default_rng(4)
    geometry = random_geometry(rng)
    # blind stage (F=1, G=0): first outcome is a fair coin, independent of everything
    blind = MeasurementStrength(1.0, 0.0)
    for x, y1, y2 in INPUTS:
        for a, b2 in itertools.product((1, -1), repeat=2):
            p_plus = triple_probability(a, 1, b2, x, y1, y2, geometry, blind)
            p_minus = triple_probability(a, -1, b2, x, y1, y2, geometry, blind)
            assert p_plus == pytest.approx(p_minus, abs=1e-14)
    # strong stage (F=0, G=1): first outcome follows the Born rule on the steered state
    strong = MeasurementStrength(0.0, 1.0)
    for x, y1 in itertools.product((0, 1), repeat=2):
        u = geometry.alice[x].vector
        w = geometry.first[y1].vector
        for a, b1 in itertools.product((1, -1), repeat=2):
            marginal = sum(
                triple_probability(a, b1, b2, x, y1, 0, geometry, strong) for b2 in (1, -1)
            )
            born = 0.5 * (1.0 - a * b1 * float(np.dot(u, w))) / 2.0
            assert marginal == pytest.approx(born, abs=1e-12)


def test_triple_probability_validates_arguments():
    rng = np.random.default_rng(5)
    geometry = random_geometry(rng)
    with pytest.raises(InvalidParameterError):
        triple_probability(2, 1, 1, 0, 0, 0, geometry, MeasurementStrength(0.6, 0.8))
    with pytest.raises(InvalidParameterError):
        triple_probability(1, 1, 1, 0, 0, 3, geometry, MeasurementStrength(0.6, 0.8))
    with pytest.raises(PhysicalityError):
        triple_probability(1, 1, 1, 0, 0, 0, geometry, MeasurementStrength(0.9, 0.9))


# --- the unit-circle positivity bound ------------------------------------------------


def test_on_circle_strength_touches_zero_probability():
    for angle in np.arange(0.1, 1.51, 0.1):
        geometry = tangent_geometry(float(angle))
        strength = MeasurementStrength(math.sin(angle), math.cos(angle))
        probs = [
            triple_probability(a, b1, b2, 0, 0, 0, geometry, strength)
            for a, b1, b2 in OUTCOMES
        ]
        assert min(probs) == pytest.approx(0.0, abs=1e-10)
        # the vanishing outcome flips the middle outcome against the others
        assert triple_probability(1, -1, 1, 0, 0, 0, geometry, strength) == pytest.approx(
            0.0, abs=1e-10
        )


def test_positivity_scan_inside_and_outside_the_circle():
    grid = np.linspace(0.05, 1.5, 30)
    inside = positivity_bound_scan(grid, 0.5, 0.6)
    assert all(row[1] >= -1e-10 for row in inside)
    on_circle = positivity_bound_scan([0.7], math.sin(0.7), math.cos(0.7))
    assert on_circle[0][1] == pytest.approx(0.0, abs=1e-10)
    assert on_circle[0][2] == pytest.approx(1.0, abs=1e-12)
    unphysical = positivity_bound_scan(grid, 0.9, 0.9)
    assert min(row[1] for row in unphysical) < -1e-3


# --- sequential chains -----------------------------------------------------------------


def test_sequential_state_trivial_cases():
    rng = np.random.default_rng(6)
    cfg = BellChainConfig(DIR_Z, DIR_X, stages=(random_stage(rng),))
    np.testing.assert_allclose(sequential_average_state(cfg, 1), cfg.initial_state, atol=0.0)
    identity_stage = BobStage(DIR_Z, DIR_X, MeasurementStrength(1.0, 0.0), bias=0.3)
    cfg = BellChainConfig(DIR_Z, DIR_X, stages=(identity_stage,) * 4)
    for n in range(1, 6):
        np.testing.assert_allclose(
            sequential_average_state(cfg, n), cfg.initial_state, atol=1e-14
        )
    with pytest.raises(InvalidParameterError):
        sequential_average_state(cfg, 6)
    with pytest.raises(InvalidParameterError):
        sequential_average_state(cfg, 0)


def test_chain_config_accepts_only_density_matrices():
    rng = np.random.default_rng(11)
    stage = random_stage(rng)
    BellChainConfig(DIR_Z, DIR_X, stages=(stage,), initial_state=singlet())
    BellChainConfig(DIR_Z, DIR_X, stages=(stage,), initial_state=random_density(rng, dim=4))
    not_hermitian = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    not_hermitian[0, 1] = 0.1
    negative = np.diag([0.6, 0.6, -0.1, -0.1])
    for bad in (np.eye(4), not_hermitian, negative):
        with pytest.raises(InvalidStateError):
            BellChainConfig(DIR_Z, DIR_X, stages=(stage,), initial_state=bad)


def test_sequential_state_matches_four_term_expansion():
    # two unbiased stages with identical settings: the third-Bob state is
    # F1 F2 rho + F1(1-F2) D(rho) + (1-F1) F2 D(rho) + (1-F1)(1-F2) D(D(rho))
    # averaged over inputs; enumerate_chain_state performs exactly that sum
    bob = tsirelson_bob()
    stage = BobStage(bob[0], bob[1], MeasurementStrength(0.6, 0.8), bias=0.5)
    cfg = BellChainConfig(DIR_Z, DIR_X, stages=(stage, stage))
    got = sequential_average_state(cfg, 3)
    expected = enumerate_chain_state(cfg, 3)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_sequential_state_matches_enumeration_for_random_chains():
    rng = np.random.default_rng(7)
    for _ in range(2):
        stages = tuple(random_stage(rng) for _ in range(5))
        cfg = BellChainConfig(random_direction(rng), random_direction(rng), stages=stages)
        for n in range(1, 7):
            got = sequential_average_state(cfg, n)
            expected = enumerate_chain_state(cfg, n)
            np.testing.assert_allclose(got, expected, atol=1e-10)


# --- CHSH ---------------------------------------------------------------------------------


def test_chsh_tsirelson_value():
    value = chsh(singlet(), tsirelson_alice(), tsirelson_bob(), 1.0)
    assert value == pytest.approx(2.0 * SQ2, abs=1e-10)
    assert chsh(singlet(), tsirelson_alice(), tsirelson_bob(), 0.0) == 0.0


def test_chsh_product_state_respects_classical_bound():
    product = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    assert abs(chsh(product, tsirelson_alice(), tsirelson_bob(), 1.0)) <= 2.0 + 1e-12


def test_chsh_scales_exactly_with_precision():
    rng = np.random.default_rng(8)
    for _ in range(10):
        alice = (random_direction(rng), random_direction(rng))
        bob = (random_direction(rng), random_direction(rng))
        g = float(rng.random())
        assert chsh(singlet(), alice, bob, g) == pytest.approx(
            g * chsh(singlet(), alice, bob, 1.0), abs=1e-15
        )
        assert abs(chsh(singlet(), alice, bob, g)) <= 2.0 * SQ2 * g + 1e-9


def test_correlation_table_bounds():
    table = correlation_table(singlet(), tsirelson_alice(), tsirelson_bob())
    assert table.shape == (2, 2)
    assert np.max(np.abs(table)) <= 1.0 + 1e-9


def test_chsh_within_horodecki_bound_on_random_chains():
    # max CHSH of a state is 2 sqrt(t1^2 + t2^2) over the two largest singular
    # values of its correlation tensor (Horodecki, Horodecki & Horodecki 1995)
    rng = np.random.default_rng(9)
    for _ in range(10):
        stages = tuple(random_stage(rng) for _ in range(4))
        cfg = BellChainConfig(random_direction(rng), random_direction(rng), stages=stages)
        for n in range(1, 6):
            state = sequential_average_state(cfg, n)
            tensor = np.array(
                [[np.trace(state @ np.kron(a, b)).real for b in PAULI_XYZ] for a in PAULI_XYZ]
            )
            t1, t2, _ = np.linalg.svd(tensor, compute_uv=False)
            bound = 2.0 * math.sqrt(t1 * t1 + t2 * t2)
            for _ in range(20):
                alice = (random_direction(rng), random_direction(rng))
                bob = (random_direction(rng), random_direction(rng))
                g = float(rng.random())
                assert abs(chsh(state, alice, bob, g)) <= g * bound + 1e-12
    # the bound is attained by the singlet at the Tsirelson settings
    assert chsh(singlet(), tsirelson_alice(), tsirelson_bob(), 1.0) == pytest.approx(
        2.0 * SQ2, abs=1e-12
    )


# --- double violations ----------------------------------------------------------------------


def test_double_violation_closed_forms_analytic():
    grid = np.arange(0.05, 0.96, 0.05)
    rows = double_violation_curve("analytic", grid)
    for g, first, second in rows:
        f = math.sqrt(1.0 - g * g)
        assert first == pytest.approx(2.0 * SQ2 * g, abs=1e-8)
        assert second == pytest.approx(SQ2 * (1.0 + f), abs=1e-8)


def test_double_violation_anchor_point():
    ((g, first, second),) = double_violation_curve("analytic", [0.8])
    assert first == pytest.approx(1.6 * SQ2, abs=1e-10)
    assert second == pytest.approx(1.6 * SQ2, abs=1e-10)
    assert first > 2.0 and second > 2.0


def test_double_violation_square_never_doubles():
    grid = np.arange(0.1, 1.0, 0.1)
    rows = double_violation_curve("square", grid)
    assert all(not (first > 2.0 and second > 2.0) for _, first, second in rows)


def test_double_violation_gaussian_window_exists():
    grid = np.arange(0.70, 0.80, 0.01)
    rows = double_violation_curve("gaussian", grid)
    assert any(first > 2.0 and second > 2.0 for _, first, second in rows)


def test_double_violation_optimal_pointer_matches_analytic():
    ((_, first, second),) = double_violation_curve("optimal", [0.8])
    assert first == pytest.approx(1.6 * SQ2, abs=1e-6)
    assert second == pytest.approx(1.6 * SQ2, abs=1e-6)


@pytest.mark.parametrize("family", ["analytic", "optimal", "gaussian", "square"])
def test_double_curve_matches_per_cell_complex_oracle(family):
    grid = [0.1, 0.3, 0.5, 0.7, 0.9]
    rows = double_violation_curve(family, grid)
    assert len(rows) == len(grid)
    alice, bob = tsirelson_alice(), tsirelson_bob()
    for target, (g, first, second) in zip(grid, rows):
        strength = _strength_for_target(family, target)
        assert g == strength.precision
        expected = oracle_chain_chsh(alice, bob, [strength])
        assert first == pytest.approx(expected[0], abs=1e-12)
        assert second == pytest.approx(expected[1], abs=1e-12)


def test_double_curve_csv():
    rows = double_violation_curve("analytic", [0.5])
    text = double_curve_to_csv(rows)
    assert text.splitlines()[0] == DOUBLE_CSV_HEADER


# --- triple scan -------------------------------------------------------------------------------


def test_triple_scan_reports_no_triple_violation_on_coarse_grid():
    grid = np.arange(0.05, 1.0, 0.05)
    report = unbiased_triple_scan(grid, grid)
    assert report.cells == len(grid) ** 2
    assert report.max_min_chsh <= 2.0
    assert min(report.best_values) == pytest.approx(report.max_min_chsh, abs=1e-12)


def test_triple_scan_matches_per_cell_complex_oracle():
    grid = [0.1 * k for k in range(1, 10)]
    alice, bob = tsirelson_alice(), tsirelson_bob()
    best = (-math.inf, None, None)
    for f1 in grid:
        for f2 in grid:
            strengths = [MeasurementStrength(f, math.sqrt((1.0 - f) * (1.0 + f))) for f in (f1, f2)]
            expected = oracle_chain_chsh(alice, bob, strengths)
            cell = unbiased_triple_scan([f1], [f2])
            np.testing.assert_allclose(cell.best_values, expected, rtol=0.0, atol=1e-12)
            if min(expected) > best[0]:
                best = (min(expected), (f1, f2), expected)
    report = unbiased_triple_scan(grid, grid)
    assert report.cells == len(grid) ** 2
    assert report.best_quality_factors == best[1]
    assert report.max_min_chsh == pytest.approx(best[0], abs=1e-12)
    np.testing.assert_allclose(report.best_values, best[2], rtol=0.0, atol=1e-12)


def test_triple_scan_symmetric_double_point_third_value():
    # with F1 = F2 = 0.6 the third CHSH is (1+F1)(1+F2)/sqrt(2) < 2
    report = unbiased_triple_scan([0.6], [0.6])
    expected_third = (1.0 + 0.6) * (1.0 + 0.6) / SQ2
    assert report.best_values[2] == pytest.approx(expected_third, abs=1e-10)
    assert report.best_values[2] < 2.0


def test_triple_scan_validates_grids():
    with pytest.raises(InvalidParameterError):
        unbiased_triple_scan([1.0], [0.5])
    with pytest.raises(InvalidParameterError):
        unbiased_triple_scan([0.5], [0.0])


# --- protocol geometry is exposed for the schedule cross-checks ------------------------------


def test_protocol_geometry_directions():
    a0, a1 = protocol_alice()
    np.testing.assert_allclose(a0.vector, [0.0, 0.0, -1.0], atol=0.0)
    np.testing.assert_allclose(a1.vector, [1.0, 0.0, 0.0], atol=0.0)
    b0, b1 = protocol_bob(math.pi / 4)
    np.testing.assert_allclose(b0.vector, [0.0, 0.0, 1.0], atol=0.0)
    np.testing.assert_allclose(b1.vector, [SQ2 / 2.0, 0.0, SQ2 / 2.0], atol=1e-15)
