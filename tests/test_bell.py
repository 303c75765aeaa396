import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    averaged_states,
    density_from_pauli,
    enumerate_chain_state,
    oracle_chain_chsh,
    oracle_bob_maps,
    oracle_chsh_values,
    oracle_triple_closed_form,
    oracle_triple_scan,
    protocol_config,
    random_density,
    random_direction,
    random_geometry,
    random_stage,
    random_strength,
    spin_operator,
    steered_state,
    tangent_geometry,
    triple_cell,
    triple_law,
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
    build_schedule,
    double_violation_curve,
    make_optimal,
    singlet,
    strength_of,
    tsirelson_alice,
    tsirelson_bob,
    unbiased_triple_scan,
)
from weakbell import bell
from weakbell.bell import (
    DOUBLE_CSV_HEADER,
    _bob_maps,
    _chsh_kernel,
    _chsh_values,
    _erfinv,
    _first_stage,
    _stage_maps,
    _target_strengths,
    double_curve_to_csv,
    pauli_coefficients,
    propagate,
)
from weakbell.channel import DIR_X, DIR_Z, PAULI_XYZ, strength_pair
from weakbell.cli import MIN_TRIPLE_RESOLUTION, parse_range

SQ2 = math.sqrt(2.0)

OUTCOMES = [(a, b1, b2) for a in (1, -1) for b1 in (1, -1) for b2 in (1, -1)]
INPUTS = [(x, y1, y2) for x in (0, 1) for y1 in (0, 1) for y2 in (0, 1)]


# --- singlet and steering -------------------------------------------------------


def test_singlet_correlations():
    state = singlet()
    # the correlation tensor _chsh_values reads: T = -I, so E_ZZ = -1 and E_ZX = 0
    np.testing.assert_allclose(pauli_coefficients(state)[1:, 1:], -np.eye(3), atol=1e-12)
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
        law = triple_law(geometry, *strength_pair(strength))
        u, w, v = geometry.alice[x].vector, geometry.first[y1].vector, geometry.second[y2].vector
        for a, b1, b2 in OUTCOMES:
            direct = float(law[triple_cell(a, b1, b2, x, y1, y2)])
            oracle = triple_probability_oracle(a, b1, b2, x, y1, y2, geometry, strength)
            closed_form = oracle_triple_closed_form(a, b1, b2, u, w, v, strength.quality_factor, strength.precision)
            worst = max(worst, abs(direct - oracle), abs(direct - closed_form))
    assert worst < 1e-10


def test_triple_probability_normalization_and_no_signalling():
    rng = np.random.default_rng(3)
    for _ in range(20):
        geometry = random_geometry(rng)
        law = triple_law(geometry, *strength_pair(random_strength(rng)))
        for x, y1, y2 in INPUTS:
            total = sum(law[triple_cell(a, b1, b2, x, y1, y2)] for a, b1, b2 in OUTCOMES)
            assert total == pytest.approx(1.0, abs=1e-12)
        # Bob's marginal must not depend on Alice's input, and vice versa
        for _, b1, b2 in OUTCOMES:
            bob_marginal = {
                (x, y1, y2): sum(law[triple_cell(aa, b1, b2, x, y1, y2)] for aa in (1, -1))
                for x, y1, y2 in INPUTS
            }
            for y1 in (0, 1):
                for y2 in (0, 1):
                    assert bob_marginal[(0, y1, y2)] == pytest.approx(
                        bob_marginal[(1, y1, y2)], abs=1e-12
                    )
        alice_marginal = {
            (x, y1, y2): sum(
                law[triple_cell(a, b1, b2, x, y1, y2)]
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
    blind = triple_law(geometry, 1.0, 0.0)
    for x, y1, y2 in INPUTS:
        for a, b2 in itertools.product((1, -1), repeat=2):
            p_plus = blind[triple_cell(a, 1, b2, x, y1, y2)]
            p_minus = blind[triple_cell(a, -1, b2, x, y1, y2)]
            assert p_plus == pytest.approx(p_minus, abs=1e-14)
    # strong stage (F=0, G=1): first outcome follows the Born rule on the steered state
    strong = triple_law(geometry, 0.0, 1.0)
    for x, y1 in itertools.product((0, 1), repeat=2):
        u = geometry.alice[x].vector
        w = geometry.first[y1].vector
        for a, b1 in itertools.product((1, -1), repeat=2):
            marginal = sum(strong[triple_cell(a, b1, b2, x, y1, 0)] for b2 in (1, -1))
            born = 0.5 * (1.0 - a * b1 * float(np.dot(u, w))) / 2.0
            assert marginal == pytest.approx(born, abs=1e-12)


def test_triple_probability_validates_arguments():
    # the joint has an input and an outcome pair an axis, so only x, y in {0, 1}
    # and a, b in {+1, -1} index it; a strength or stage is checked where it is made
    rng = np.random.default_rng(5)
    assert triple_law(random_geometry(rng), 0.6, 0.8).shape == (2,) * 6
    with pytest.raises(PhysicalityError):
        MeasurementStrength(0.9, 0.9)
    with pytest.raises(InvalidParameterError):
        BobStage(DIR_Z, DIR_X, MeasurementStrength(0.6, 0.8), bias=1.5)


def test_stages_and_probabilities_take_strengths_not_pointer_grids():
    # a grid's (F, G) is pointer.strength_of(grid); the refusal says so
    grid = make_optimal(0.8)
    with pytest.raises(InvalidParameterError, match="strength_of"):
        BobStage(DIR_Z, DIR_X, grid)
    with pytest.raises(InvalidParameterError, match="strength_of"):
        strength_pair(grid)
    stage = BobStage(DIR_Z, DIR_X, strength_of(grid))
    assert stage.strength == strength_of(grid)


# --- the unit-circle positivity bound ------------------------------------------------


def tangent_minimum(angle: float, quality: float, prec: float) -> float:
    """The least of the eight x = y1 = y2 = 0 outcome probabilities at the tangent geometry."""
    return float(triple_law(tangent_geometry(angle), quality, prec)[0, :, 0, :, 0, :].min())


def test_on_circle_strength_touches_zero_probability():
    for angle in np.arange(0.1, 1.51, 0.1):
        law = triple_law(tangent_geometry(float(angle)), math.sin(angle), math.cos(angle))
        probs = [law[triple_cell(a, b1, b2, 0, 0, 0)] for a, b1, b2 in OUTCOMES]
        assert min(probs) == pytest.approx(0.0, abs=1e-10)
        # the vanishing outcome flips the middle outcome against the others
        assert law[triple_cell(1, -1, 1, 0, 0, 0)] == pytest.approx(0.0, abs=1e-10)


def test_positivity_scan_inside_and_outside_the_circle():
    grid = np.linspace(0.05, 1.5, 30)
    assert all(tangent_minimum(angle, 0.5, 0.6) >= -1e-10 for angle in grid)
    on_circle = triple_law(tangent_geometry(0.7), math.sin(0.7), math.cos(0.7))
    assert tangent_minimum(0.7, math.sin(0.7), math.cos(0.7)) == pytest.approx(0.0, abs=1e-10)
    # the vanishing cell is 1 - (F sin(t) + G cos(t)), the tangent value being 1 on the circle
    tangent_value = math.sin(0.7) * math.sin(0.7) + math.cos(0.7) * math.cos(0.7)
    assert on_circle[triple_cell(1, -1, 1, 0, 0, 0)] == pytest.approx(1.0 - tangent_value, abs=1e-12)
    assert min(tangent_minimum(angle, 0.9, 0.9) for angle in grid) < -1e-3


@pytest.mark.parametrize(
    "quality, precision",
    [(0.5, 0.6), (math.sin(0.7), math.cos(0.7)), (0.9, 0.9)],
    ids=["inside", "on-circle", "unphysical"],
)
def test_positivity_scan_matches_the_closed_form(quality, precision):
    # the joint propagates the raw pair: routed through MeasurementStrength,
    # the unphysical one would raise PhysicalityError
    for angle in [*np.linspace(0.05, 1.5, 30), 0.7]:
        geometry = tangent_geometry(float(angle))
        u, w, v = geometry.alice[0].vector, geometry.first[0].vector, geometry.second[0].vector
        want = min(oracle_triple_closed_form(a, b1, b2, u, w, v, quality, precision) for a, b1, b2 in OUTCOMES)
        assert tangent_minimum(float(angle), quality, precision) == pytest.approx(want, abs=1e-15), angle


# --- sequential chains -----------------------------------------------------------------


def test_chain_length_is_capped_before_any_joint_is_built(monkeypatch):
    # a chain's joint holds 4 * 4^n cells: the cap is refused in the
    # constructor, so no joint of an over-long chain is ever built
    stage = BobStage(DIR_Z, DIR_X, MeasurementStrength(1.0, 0.0), bias=0.3)
    joint = bell._propagated_joint

    def refuse(*args):
        raise AssertionError("a joint was built")

    monkeypatch.setattr(bell, "_propagated_joint", refuse)
    assert bell.MAX_CHAIN_STAGES == 8
    cfg = BellChainConfig(DIR_Z, DIR_X, stages=(stage,) * 8)
    with pytest.raises(InvalidParameterError, match=r"^a Bell chain of 9 Bob stages is over the cap of 8 stages$"):
        BellChainConfig(DIR_Z, DIR_X, stages=(stage,) * 9)
    monkeypatch.setattr(bell, "_propagated_joint", joint)
    assert bell._chain_joint(cfg).shape == (2,) * 18


def test_sequential_state_trivial_cases():
    rng = np.random.default_rng(6)
    cfg = BellChainConfig(DIR_Z, DIR_X, stages=(random_stage(rng),))
    np.testing.assert_allclose(averaged_states(cfg)[0], pauli_coefficients(cfg.initial_state), atol=0.0)
    identity_stage = BobStage(DIR_Z, DIR_X, MeasurementStrength(1.0, 0.0), bias=0.3)
    cfg = BellChainConfig(DIR_Z, DIR_X, stages=(identity_stage,) * 4)
    states = averaged_states(cfg)
    # one state before each Bob and one after the last
    assert len(states) == 5
    for state in states:
        np.testing.assert_allclose(density_from_pauli(state), cfg.initial_state, atol=1e-14)


def test_chain_config_accepts_only_density_matrices():
    rng = np.random.default_rng(11)
    stage = random_stage(rng)
    BellChainConfig(DIR_Z, DIR_X, stages=(stage,), initial_state=singlet())
    BellChainConfig(DIR_Z, DIR_X, stages=(stage,), initial_state=random_density(rng, dim=4))
    # a Hermiticity drift of exactly the 1e-9 tolerance is accepted, the next float above it refused
    at_tolerance = (np.eye(4) / 4.0).astype(complex)
    at_tolerance[0, 1] += 1e-9
    BellChainConfig(DIR_Z, DIR_X, stages=(stage,), initial_state=at_tolerance)
    past_tolerance = (np.eye(4) / 4.0).astype(complex)
    past_tolerance[0, 1] = math.nextafter(1e-9, 1.0)
    not_hermitian = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    not_hermitian[0, 1] = 0.1
    negative = np.diag([0.6, 0.6, -0.1, -0.1])
    for bad in (np.eye(4), not_hermitian, negative, past_tolerance):
        with pytest.raises(InvalidStateError):
            BellChainConfig(DIR_Z, DIR_X, stages=(stage,), initial_state=bad)


def test_sequential_state_matches_four_term_expansion():
    # two unbiased stages with identical settings: the third-Bob state is
    # F1 F2 rho + F1(1-F2) D(rho) + (1-F1) F2 D(rho) + (1-F1)(1-F2) D(D(rho))
    # averaged over inputs; enumerate_chain_state performs exactly that sum
    bob = tsirelson_bob()
    stage = BobStage(bob[0], bob[1], MeasurementStrength(0.6, 0.8), bias=0.5)
    cfg = BellChainConfig(DIR_Z, DIR_X, stages=(stage, stage))
    got = density_from_pauli(averaged_states(cfg)[2])
    expected = enumerate_chain_state(cfg, 3)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_sequential_state_matches_enumeration_for_random_chains():
    rng = np.random.default_rng(7)
    for _ in range(2):
        stages = tuple(random_stage(rng) for _ in range(5))
        cfg = BellChainConfig(random_direction(rng), random_direction(rng), stages=stages)
        for n, state in enumerate(averaged_states(cfg), 1):
            expected = enumerate_chain_state(cfg, n)
            np.testing.assert_allclose(density_from_pauli(state), expected, atol=1e-10)


# --- CHSH ---------------------------------------------------------------------------------


def test_chsh_tsirelson_value():
    pauli = pauli_coefficients(singlet())
    kernel = _chsh_kernel(tsirelson_alice(), tsirelson_bob())
    assert _chsh_values(pauli, kernel, 1.0) == pytest.approx(2.0 * SQ2, abs=1e-10)
    assert _chsh_values(pauli, kernel, 0.0) == 0.0


def test_chsh_product_state_respects_classical_bound():
    product = pauli_coefficients(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    assert abs(_chsh_values(product, _chsh_kernel(tsirelson_alice(), tsirelson_bob()), 1.0)) <= 2.0 + 1e-12


def test_chsh_scales_exactly_with_precision():
    rng = np.random.default_rng(8)
    pauli = pauli_coefficients(singlet())
    for _ in range(10):
        alice = (random_direction(rng), random_direction(rng))
        bob = (random_direction(rng), random_direction(rng))
        kernel = _chsh_kernel(alice, bob)
        g = float(rng.random())
        assert _chsh_values(pauli, kernel, g) == pytest.approx(g * _chsh_values(pauli, kernel, 1.0), abs=1e-15)
        assert abs(_chsh_values(pauli, kernel, g)) <= 2.0 * SQ2 * g + 1e-9


def random_pauli_stack(rng, count: int) -> np.ndarray:
    return np.stack([pauli_coefficients(random_density(rng, 4)) for _ in range(count)])


def test_chsh_values_equal_the_per_state_formula_at_tsirelson_settings():
    # Alice's Z and X are axis-aligned, so each correlator in the kernel matmul
    # and in u T w^T is the same two products R_ac w_y[c].  The chain states of
    # the scans have a diagonal correlation tensor, so one of the two is 0 and
    # the formulas agree bit for bit on any BLAS
    rng = np.random.default_rng(31)
    alice, bob = tsirelson_alice(), tsirelson_bob()
    kernel = _chsh_kernel(alice, bob)
    maps = [_bob_maps(rng.random(5000), bob) for _ in range(2)]
    chains = propagate(pauli_coefficients(singlet()), maps)
    for states in chains[1:]:
        for precision in (1.0, rng.random(5000)):
            got = _chsh_values(states, kernel, precision)
            assert np.array_equal(got, oracle_chsh_values(states, alice, bob, precision))
    # on general states a BLAS may round the two-product sum once (a fused
    # multiply-add) in one formula and twice in the other
    states = random_pauli_stack(rng, 5000)
    precision = rng.random(5000)
    got = _chsh_values(states, kernel, precision)
    np.testing.assert_allclose(got, oracle_chsh_values(states, alice, bob, precision), rtol=0.0, atol=4e-15)


def test_a_strong_bobs_chsh_has_the_bits_of_the_four_multiplies():
    # G = 1.0 skips the multiplies by G, which leave every correlator as it is;
    # an array of ones takes the multiplying path
    rng = np.random.default_rng(33)
    kernel = _chsh_kernel(tsirelson_alice(), tsirelson_bob())
    states = random_pauli_stack(rng, 2000)
    assert np.array_equal(_chsh_values(states, kernel, 1.0), _chsh_values(states, kernel, np.ones(2000)))
    assert _chsh_values(states[0], kernel, 1.0) == _chsh_values(states[0], kernel, np.ones(1))[0]


def test_chsh_values_agree_with_the_per_state_formula_on_random_settings():
    # other directions sum their products in another order: 1,400 cells within 4e-15
    rng = np.random.default_rng(32)
    states = random_pauli_stack(rng, 7)
    gap = 0.0
    for _ in range(200):
        alice = (random_direction(rng), random_direction(rng))
        bob = (random_direction(rng), random_direction(rng))
        precision = rng.random(7)
        got = _chsh_values(states, _chsh_kernel(alice, bob), precision)
        gap = max(gap, float(np.max(np.abs(got - oracle_chsh_values(states, alice, bob, precision)))))
    assert gap <= 4e-15


def test_chsh_values_of_strided_stacks_equal_their_contiguous_copies():
    rng = np.random.default_rng(33)
    states = random_pauli_stack(rng, 40)
    transposed = np.swapaxes(np.swapaxes(states, -1, -2).copy(), -1, -2)  # each 4x4 block column-major
    random_settings = ((random_direction(rng), random_direction(rng)), (random_direction(rng), random_direction(rng)))
    for alice, bob in ((tsirelson_alice(), tsirelson_bob()), random_settings):
        for view, precision in (
            (states[:, None], rng.random(9)),
            (states[::2], 0.7),
            (states[::-3], rng.random(14)),
            (transposed, 1.0),
        ):
            # numpy counts states[:, None] as contiguous: its new axis has length 1
            assert view.ndim == 4 or not view.flags.c_contiguous
            kernel = _chsh_kernel(alice, bob)
            got = _chsh_values(view, kernel, precision)
            assert np.array_equal(got, _chsh_values(np.ascontiguousarray(view), kernel, precision))


def test_correlation_table_bounds():
    # E_xy = tr(rho sigma_u (x) sigma_w) of the singlet at the Tsirelson settings, by np.kron
    alice, bob = tsirelson_alice(), tsirelson_bob()
    table = np.array(
        [[np.trace(singlet() @ np.kron(spin_operator(u), spin_operator(w))).real for w in bob] for u in alice]
    )
    assert table.shape == (2, 2)
    assert np.max(np.abs(table)) <= 1.0 + 1e-9
    combination = table[0, 0] + table[0, 1] + table[1, 0] - table[1, 1]
    value = _chsh_values(pauli_coefficients(singlet()), _chsh_kernel(alice, bob), 1.0)
    assert value == pytest.approx(combination, abs=1e-12)


def test_chsh_within_horodecki_bound_on_random_chains():
    # max CHSH of a state is 2 sqrt(t1^2 + t2^2) over the two largest singular
    # values of its correlation tensor (Horodecki, Horodecki & Horodecki 1995)
    rng = np.random.default_rng(9)
    for _ in range(10):
        stages = tuple(random_stage(rng) for _ in range(4))
        cfg = BellChainConfig(random_direction(rng), random_direction(rng), stages=stages)
        for pauli in averaged_states(cfg):
            state = density_from_pauli(pauli)
            tensor = np.array(
                [[np.trace(state @ np.kron(a, b)).real for b in PAULI_XYZ] for a in PAULI_XYZ]
            )
            t1, t2, _ = np.linalg.svd(tensor, compute_uv=False)
            bound = 2.0 * math.sqrt(t1 * t1 + t2 * t2)
            for _ in range(20):
                alice = (random_direction(rng), random_direction(rng))
                bob = (random_direction(rng), random_direction(rng))
                g = float(rng.random())
                assert abs(_chsh_values(pauli, _chsh_kernel(alice, bob), g)) <= g * bound + 1e-12
    # the bound is attained by the singlet at the Tsirelson settings
    kernel = _chsh_kernel(tsirelson_alice(), tsirelson_bob())
    assert _chsh_values(pauli_coefficients(singlet()), kernel, 1.0) == pytest.approx(2.0 * SQ2, abs=1e-12)


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
        quality, precision = _target_strengths(family, np.array([target]))
        assert g == precision[0]
        expected = oracle_chain_chsh(alice, bob, [MeasurementStrength(quality.item(), precision.item())])
        assert first == pytest.approx(expected[0], abs=1e-12)
        assert second == pytest.approx(expected[1], abs=1e-12)


@pytest.mark.parametrize("family", ["analytic", "optimal", "gaussian", "square"])
def test_double_curve_in_blocks_of_targets_has_the_bits_of_one_stack(monkeypatch, family):
    # 199 targets are one block; in blocks of 7 every row keeps its bits
    grid = parse_range("0.005:0.995:0.005")
    assert len(grid) < bell._TARGET_BLOCK
    whole = [tuple(map(float.hex, row)) for row in double_violation_curve(family, grid)]
    monkeypatch.setattr(bell, "_TARGET_BLOCK", 7)
    assert [tuple(map(float.hex, row)) for row in double_violation_curve(family, grid)] == whole


@pytest.mark.parametrize("family", ["analytic", "optimal", "gaussian", "square"])
def test_double_curve_of_an_empty_grid_is_empty(family):
    # no target is refused, so no first refused index is read
    assert double_violation_curve(family, []) == []


def test_long_double_sweep_holds_a_block_of_chain_stacks_at_a_time():
    # the whole (n, 4, 4) stack and its stage maps once peaked at ~8 stacks;
    # the rows returned are now most of the peak
    grid = parse_range("0.01:0.99:0.00002")
    tracemalloc.start()
    try:
        rows = double_violation_curve("analytic", grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 49_001
    assert peak < 2.5 * len(grid) * 16 * 8


def _ulps_from_erfinv(x, g):
    root = mpmath.erfinv(mpmath.mpf(g))
    return abs(mpmath.mpf(x) - root) / mpmath.mpf(math.ulp(float(root)))


def test_erfinv_matches_mpmath_on_the_readme_widths_and_the_ends():
    # the gaussian double curve's 199 README targets, the erf/erfc switch at
    # 0.5, and both ends of (0, 1); the erf/erfc split keeps 1 - G exact
    targets = parse_range("0.005:0.995:0.005") + [1e-300, 0.5, math.nextafter(0.5, 1.0), 1 - 1e-10, 1 - 2.0**-53]
    with mpmath.workdps(40):
        for g in targets:
            assert _ulps_from_erfinv(_erfinv(g), g) <= 2, g


@settings(derandomize=True, deadline=None, max_examples=300)
@given(g=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
def test_erfinv_matches_mpmath_across_the_unit_interval(g):
    with mpmath.workdps(40):
        assert _ulps_from_erfinv(_erfinv(g), g) <= 2


class _CountingMath:
    """math, with every erf and erfc call counted: one a Newton step of _erfinv."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def erf(self, x):
        self.calls += 1
        return math.erf(x)

    def erfc(self, x):
        self.calls += 1
        return math.erfc(x)


def test_erfinv_takes_at_most_five_newton_steps(monkeypatch):
    # 27,000 targets from 1e-300 to 1 - 2^-53: 9,000 spread evenly, 9,000
    # log-spaced up to 0.5, and 9,000 whose 1 - G is log-spaced down to 2^-53;
    # a worse start value than Winitzki's takes more steps or leaves the domain
    targets = np.concatenate(
        [
            np.linspace(0.0, 1.0, 9002)[1:-1],
            np.geomspace(1e-300, 0.5, 9000),
            1.0 - np.geomspace(0.5, 2.0**-53, 9000),
        ]
    ).tolist()
    assert min(targets) == 1e-300 and max(targets) == 1.0 - 2.0**-53
    counting = _CountingMath()
    monkeypatch.setattr(bell, "math", counting)
    steps = []
    for g in targets:
        counting.calls = 0
        bell._erfinv(g)
        steps.append(counting.calls)
    assert len(steps) == 27_000
    assert 1 <= min(steps) and max(steps) <= 5


def test_double_curve_csv():
    rows = double_violation_curve("analytic", [0.5])
    text = "".join(double_curve_to_csv(rows))
    assert text.splitlines()[0] == DOUBLE_CSV_HEADER


def test_double_curve_csv_is_the_header_then_one_text_per_block_of_rows(monkeypatch):
    rows = double_violation_curve("optimal", parse_range("0.005:0.995:0.005"))
    lines = [f"{g!r},{first!r},{second!r}\n" for g, first, second in rows]
    monkeypatch.setattr(bell, "_TARGET_BLOCK", 7)
    blocks = list(double_curve_to_csv(rows))
    assert blocks[0] == DOUBLE_CSV_HEADER + "\n"
    assert blocks[1:] == ["".join(lines[lo : lo + 7]) for lo in range(0, 199, 7)]
    assert list(double_curve_to_csv([])) == [DOUBLE_CSV_HEADER + "\n"]


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


def scan_grid(resolution: float) -> list[float]:
    """The (F1 = F2) grid of triple-scan --resolution."""
    return [v for v in (resolution * k for k in range(1, int(round(1.0 / resolution)))) if 0.0 < v < 1.0]


@pytest.mark.parametrize("resolution", [0.01, 0.05, 0.0137, MIN_TRIPLE_RESOLUTION])
def test_triple_scan_is_bit_identical_to_the_per_cell_oracle(resolution, monkeypatch):
    calls = []

    def recording(*args):
        calls.append(_chsh_values(*args))
        return calls[-1]

    monkeypatch.setattr(bell, "_chsh_values", recording)
    grid = scan_grid(resolution)
    # I3 is symmetric in (F1, F2), so only unequal grids show the axes' order
    for f1, f2 in ((grid, grid), (grid[::2], grid[1::3])):
        calls.clear()
        report = unbiased_triple_scan(f1, f2)
        expected, expected_report = oracle_triple_scan(f1, f2)
        assert report == expected_report
        # I1 and I2 broadcast along F2; I3 is read from the stage-three states ordered (F2, F1)
        first, second, third = calls
        for got, want in zip(np.broadcast_arrays(first, second, third.T), expected):
            assert np.array_equal(got, want)


def test_row_stack_propagation_equals_the_per_cell_broadcast():
    bob = tsirelson_bob()
    grid = np.array(scan_grid(0.01))
    states = propagate(pauli_coefficients(singlet()), [_bob_maps(grid, bob)])[-1]
    maps = _bob_maps(grid, bob)
    # the README grid's maps are diagonal, so each entry has one nonzero product on any BLAS
    assert np.array_equal(maps, maps * np.eye(4))
    rows = propagate(states.reshape(-1, 4), [maps])[-1].reshape(grid.size, grid.size, 4, 4)
    assert np.array_equal(np.swapaxes(rows, 0, 1), propagate(states[:, None], [maps[None]])[-1])
    # the scan hands propagate the symmetric maps' transposed view: the same bits
    stored = propagate(states.reshape(-1, 4), [maps.swapaxes(-1, -2)])[-1].reshape(grid.size, grid.size, 4, 4)
    assert stored.tobytes() == rows.tobytes()
    # conditional stage maps of random strengths and directions fill every entry
    rng = np.random.default_rng(34)
    states = random_pauli_stack(rng, 30)
    directions = (random_direction(rng), random_direction(rng))
    maps = _stage_maps(rng.random(20), rng.random(20), directions).reshape(-1, 4, 4)
    rows = propagate(states.reshape(-1, 4), [maps])[-1].reshape(len(maps), len(states), 4, 4)
    per_cell = propagate(states[:, None], [maps[None]])[-1]
    np.testing.assert_allclose(np.swapaxes(rows, 0, 1), per_cell, rtol=0.0, atol=1e-14)


_COMPONENTS = st.one_of(st.sampled_from([0.0, -0.0, 1e-170, -1e-170]), st.floats(-1.0, 1.0))


@st.composite
def unit_directions(draw) -> Direction:
    """Directions with signed-zero and tiny components, whose products d_i d_j may be subnormal or 0."""
    v = draw(st.tuples(_COMPONENTS, _COMPONENTS, _COMPONENTS).filter(lambda v: math.hypot(*v) > 0.1))
    norm = math.hypot(*v)
    return Direction(*(c / norm for c in v))


def _halves_exactly(quality, directions) -> bool:
    """Whether every entry x of A_y = F I + (1-F) d_y d_y^T, over all F and y, has x/2 exact."""
    d = np.stack([direction.vector for direction in directions])
    f = np.asarray(quality)[:, None, None, None]
    x = f * np.eye(3) + (1.0 - f) * (d[:, :, None] * d[:, None, :])
    return bool(np.all((x / 2.0) * 2.0 == x))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    quality=st.lists(st.one_of(st.sampled_from([0.0, 1.0, 5e-324]), st.floats(0.0, 1.0)), min_size=1, max_size=6),
    directions=st.tuples(unit_directions(), unit_directions()),
    bias=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
)
@example(quality=[0.0, 1.0, 5e-324], directions=(Direction(1e-170, 0.6, 0.8), Direction(-0.0, 1.0, 0.0)), bias=0.25)
@example(quality=[0.0, 1.0, 5e-324], directions=tsirelson_bob(), bias=0.5)
def test_bob_maps_hold_the_bits_of_the_conditional_sum(quality, directions, bias):
    # the conditional sum adds x/2 + x/2 for each entry x of A_y, which is x
    # unless x/2 rounds: x a subnormal with an odd last bit.  Even then the
    # halves meet again at bias 1/2, where (1-r) A_0 + r A_1 halves once more
    got = _bob_maps(np.array(quality), directions, bias)
    want = oracle_bob_maps(np.array(quality), directions, bias)
    # symmetric to the bit, as the triple scan's stage two assumes
    assert got.tobytes() == np.ascontiguousarray(got.swapaxes(-1, -2)).tobytes()
    if bias == 0.5 or _halves_exactly(quality, directions):
        assert got.tobytes() == want.tobytes()
    else:
        # each input's entry moves by at most one subnormal step
        assert np.max(np.abs(got - want)) <= 2.0 * 5e-324


def test_bob_maps_keep_a_subnormal_entry_the_conditional_sum_halves_away():
    # F = 5e-324 puts F itself on every diagonal entry where d_i^2 is 0: the
    # Tsirelson settings' y entry, and the 1e-170 direction's x entry, whose
    # square underflows.  The sum rounds 5e-324 / 2 to 0 and gets 0 back;
    # the direct form keeps 5e-324.  At bias 1/2 both halve it to 0
    cases = [
        (tsirelson_bob(), (2, 2)),
        ((Direction(1e-170, 0.6, 0.8), Direction(1e-170, 0.8, -0.6)), (1, 1)),
    ]
    for directions, entry in cases:
        for bias in (0.0, 1.0):
            got = _bob_maps(np.array([5e-324]), directions, bias)[0]
            want = oracle_bob_maps(np.array([5e-324]), directions, bias)[0]
            assert got[entry] == 5e-324 and want[entry] == 0.0
            others = np.ones((4, 4), dtype=bool)
            others[entry] = False
            assert got[others].tobytes() == want[others].tobytes()
        got = _bob_maps(np.array([5e-324]), directions)
        assert got[0][entry] == 0.0
        assert got.tobytes() == oracle_bob_maps(np.array([5e-324]), directions).tobytes()


def test_first_stage_gemm_equals_the_per_map_broadcast():
    pauli = pauli_coefficients(singlet())
    bob = tsirelson_bob()
    # the triple grids and the double targets at the Tsirelson settings: every
    # map is diagonal, so each entry is one product on any BLAS
    quality_grids = [np.array(scan_grid(resolution)) for resolution in (0.01, 0.0137, MIN_TRIPLE_RESOLUTION)]
    for grid in ("0.005:0.995:0.005", "0.01:0.99:0.0001"):
        quality_grids.append(_target_strengths("analytic", np.array(parse_range(grid)))[0])
    for quality in quality_grids:
        maps = _bob_maps(quality, bob)
        got = _first_stage(pauli, maps)
        assert got.shape == (quality.size, 4, 4)
        assert got.tobytes() == np.ascontiguousarray(propagate(pauli, [maps])[-1]).tobytes()
    # conditional stage maps of random strengths and directions on random states fill every entry
    rng = np.random.default_rng(35)
    for _ in range(20):
        pauli = pauli_coefficients(random_density(rng, 4))
        directions = (random_direction(rng), random_direction(rng))
        maps = _stage_maps(rng.random(25), rng.random(25), directions).reshape(-1, 4, 4)
        np.testing.assert_allclose(_first_stage(pauli, maps), propagate(pauli, [maps])[-1], rtol=0.0, atol=1e-14)


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


# --- protocol geometry of the schedule cross-checks ----------------------------------------


def test_protocol_geometry_directions():
    # t_1 = pi/4: Alice on -Z, X; Bob_1 on Z and (Z + X)/sqrt(2)
    cfg = protocol_config(build_schedule(1))
    np.testing.assert_allclose(cfg.alice_dir0.vector, [0.0, 0.0, -1.0], atol=0.0)
    np.testing.assert_allclose(cfg.alice_dir1.vector, [1.0, 0.0, 0.0], atol=0.0)
    np.testing.assert_allclose(cfg.stages[0].dir0.vector, [0.0, 0.0, 1.0], atol=0.0)
    np.testing.assert_allclose(cfg.stages[0].dir1.vector, [SQ2 / 2.0, 0.0, SQ2 / 2.0], atol=1e-15)
