import functools
import json
import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import gammaincc

from conftest import (
    collapse_bloch,
    kraus_at_reading,
    oracle_alice_steering,
    oracle_analytic_joint,
    oracle_bob_reports,
    oracle_chain_rule,
    oracle_count_outcomes,
    oracle_outcome_table,
    oracle_reading_cdf,
    oracle_run_chain,
    oracle_split_run,
    oracle_triple_closed_form,
    outcome_probabilities,
    projectors,
    random_density,
    random_direction,
    random_stage,
    random_strength,
    weak_conditional,
)

from weakbell import (
    BellChainConfig,
    BobStage,
    EmpiricalReport,
    InvalidParameterError,
    MeasurementStrength,
    PointerState,
    analytic_joint,
    chi_square_report,
    make_exponential,
    make_gaussian,
    make_optimal,
    make_square,
    make_worst,
    run_chain,
    strength_of,
    tsirelson_alice,
    tsirelson_bob,
)
from weakbell import bell, montecarlo
from weakbell.bell import propagate
from weakbell.channel import DIR_X, DIR_Z
from weakbell.cli import _montecarlo_config, main
from weakbell.montecarlo import (
    ZERO_MASS,
    _chi_square_tail,
    _reports,
    _split,
)
from weakbell.pointer import DEFAULT_GRID_SPACING, _family_strength, _frontier_envelope, _odd_rows

# a strong (projective) measurement
STRONG = MeasurementStrength(0.0, 1.0)


def double_config(target_precision=0.8):
    return _montecarlo_config("double", target_precision)


# --- single readings -----------------------------------------------------------


def test_digitized_frequencies_match_outcome_probabilities():
    # independent sampler written here against the same discrete density
    rng = np.random.default_rng(42)
    pointer = make_optimal(0.8)
    rho = random_density(rng)
    d = random_direction(rng)
    p_plus_analytic, _ = outcome_probabilities(rho, d, 0.8)

    pp, _ = projectors(d)
    branch_plus = float(np.trace(pp @ rho).real)
    positions, cdf = pointer.positions, oracle_reading_cdf(pointer)
    for trials in (10_000, 100_000, 1_000_000):
        shifts = np.where(rng.random(trials) < branch_plus, 1.0, -1.0)
        idx = np.searchsorted(cdf, rng.random(trials), side="right")
        readings = positions[idx] + shifts
        p_hat = float(np.mean(readings > 0.0))
        stderr = math.sqrt(p_plus_analytic * (1.0 - p_plus_analytic) / trials)
        assert abs(p_hat - p_plus_analytic) < 4.0 * stderr


def test_reading_first_moment_matches_discrete_mean():
    rng = np.random.default_rng(43)
    pointer = make_optimal(0.6)
    rho = random_density(rng)
    d = random_direction(rng)

    pp, _ = projectors(d)
    branch_plus = float(np.trace(pp @ rho).real)
    positions, cdf = pointer.positions, oracle_reading_cdf(pointer)
    masses = np.diff(np.concatenate([[0.0], cdf]))
    analytic_mean = branch_plus * float(np.sum((positions + 1.0) * masses)) + (
        1.0 - branch_plus
    ) * float(np.sum((positions - 1.0) * masses))

    trials = 200_000
    shifts = np.where(rng.random(trials) < branch_plus, 1.0, -1.0)
    idx = np.searchsorted(cdf, rng.random(trials), side="right")
    readings = positions[idx] + shifts
    stderr = float(np.std(readings)) / math.sqrt(trials)
    assert abs(float(np.mean(readings)) - analytic_mean) < 4.0 * stderr


def test_post_selected_states_match_conditional_channel():
    # readings sampled here from the pointer density; each is collapsed by K_q
    rng = np.random.default_rng(44)
    pointer = make_optimal(0.8)
    rho = random_density(rng)
    d = random_direction(rng)
    strength = MeasurementStrength(0.6, 0.8)
    conditional = weak_conditional(rho, d, strength, 1)
    p_plus = float(np.trace(conditional).real)
    expected = conditional / p_plus

    pp, _ = projectors(d)
    branch_plus = float(np.trace(pp @ rho).real)
    trials = 40_000
    shifts = np.where(rng.random(trials) < branch_plus, 1.0, -1.0)
    idx = np.searchsorted(oracle_reading_cdf(pointer), rng.random(trials), side="right")
    readings = pointer.positions[idx] + shifts
    kept_readings, multiplicity = np.unique(readings[readings > 0.0], return_counts=True)

    total = np.zeros((2, 2), dtype=complex)
    for reading, count in zip(kept_readings, multiplicity):
        k = kraus_at_reading(pointer, d, float(reading))
        collapsed = k @ rho @ k
        total += count * collapsed / np.trace(collapsed).real
    kept = int(np.sum(multiplicity))
    averaged = total / kept
    stderr = 4.0 / math.sqrt(kept)
    assert np.max(np.abs(averaged - expected)) < stderr


# --- full chains -------------------------------------------------------------------


def test_run_chain_is_deterministic():
    cfg = double_config()
    first = run_chain(cfg, 500, seed=99)
    second = run_chain(cfg, 500, seed=99)
    assert first.to_dict() == second.to_dict()
    assert first.outcome_counts == second.outcome_counts
    assert first.config_digest == second.config_digest
    third = run_chain(cfg, 500, seed=100)
    assert third.outcome_counts != first.outcome_counts
    assert third.to_dict() != first.to_dict()


def test_records_digitize_readings_by_sign():
    cfg = double_config()
    report = run_chain(cfg, 500, seed=5)
    # the stages' grid twins: readings are their nodes displaced by +/-1, so none
    # is 0 and sign(q) is never tied; run_chain draws the sign's branch
    for grid in (make_optimal(0.8), make_square(1.0)):
        for shift in (1.0, -1.0):
            assert np.all(grid.positions + shift != 0.0)
    # every trial is digitized to one outcome +/-1 per Bob
    assert sum(report.outcome_counts.values()) == 500
    for key in report.outcome_counts:
        assert all(b in (-1, 1) for b in key[-len(cfg.stages) :])


def test_run_chain_strong_aligned_bob_anticorrelates_exactly():
    # a strong Bob measuring along Alice's own directions sees b = -a on the singlet
    cfg = BellChainConfig(DIR_Z, DIR_X, stages=(BobStage(DIR_Z, DIR_X, STRONG, bias=0.5),))
    bob = run_chain(cfg, 20_000, seed=6).per_bob[0]
    assert bob.correlations[(0, 0)] == -1.0
    assert bob.correlations[(1, 1)] == -1.0
    assert abs(bob.correlations[(0, 1)]) < 4.0 * math.sqrt(1.0 / bob.counts[(0, 1)])


def test_run_chain_double_scenario_reproduces_analytic_chsh():
    cfg = double_config()
    report = run_chain(cfg, 200_000, seed=7)
    for bob, expected in zip(report.per_bob, (1.6 * math.sqrt(2.0), 1.6 * math.sqrt(2.0))):
        assert not bob.insufficient
        assert abs(bob.chsh - expected) < 4.0 * bob.chsh_stderr


def test_run_chain_single_strong_bob_hits_tsirelson():
    alice = tsirelson_alice()
    bob = tsirelson_bob()
    cfg = BellChainConfig(
        alice[0], alice[1], stages=(BobStage(bob[0], bob[1], STRONG, bias=0.5),)
    )
    report = run_chain(cfg, 200_000, seed=11)
    assert abs(report.per_bob[0].chsh - 2.0 * math.sqrt(2.0)) < 4.0 * report.per_bob[0].chsh_stderr


def test_run_chain_flags_missing_input_combinations():
    alice = tsirelson_alice()
    bob = tsirelson_bob()
    cfg = BellChainConfig(
        alice[0], alice[1], stages=(BobStage(bob[0], bob[1], STRONG, bias=0.0),)
    )
    report = run_chain(cfg, 200, seed=3)
    assert report.per_bob[0].insufficient
    assert math.isnan(report.per_bob[0].chsh)


def _report_fields(bob) -> list:
    # repr round-trips every float bit, and NaN reads the same on both sides
    return [
        repr(list(bob.correlations.items())),
        list(bob.counts.items()),
        repr(bob.chsh),
        repr(bob.chsh_stderr),
        bob.insufficient,
    ]


@pytest.mark.parametrize("n_stages", [1, 2, 3])
@pytest.mark.parametrize(
    "trials, bias", [(1, 0.5), (7, 0.5), (5_000, 0.5), (5_000, 0.0), (5_000, 1.0), (5_000, 0.97)]
)
def test_outcome_table_tally_matches_the_mask_loop(n_stages, trials, bias):
    # few trials or a one-sided bias leave input cells empty
    rng = np.random.default_rng(1000 * n_stages + trials + round(100 * bias))
    x_bits = (rng.random(trials) < 0.5).astype(np.int8)
    a = np.where(rng.random(trials) < 0.3, 1, -1).astype(np.int8)
    stage_inputs = [(rng.random(trials) < bias).astype(np.int8) for _ in range(n_stages)]
    stage_outcomes = [
        (a * np.where(rng.random(trials) < agree, 1, -1)).astype(np.int8) for agree in rng.random(n_stages)
    ]
    # the tally takes 0/1 inputs and boolean outcomes in axis order; the mask
    # loops read the +-1 signs
    bits = [x_bits, *stage_inputs, a > 0, *(b > 0 for b in stage_outcomes)]
    table = oracle_outcome_table(bits)
    per_bob = _reports(table)
    oracle = oracle_bob_reports(x_bits, a, stage_inputs, stage_outcomes)
    assert [_report_fields(bob) for bob in per_bob] == [_report_fields(bob) for bob in oracle]
    # a report keys its table's non-zero cells only when asked
    outcome_counts = EmpiricalReport("", 0, trials, per_bob, table).outcome_counts
    oracle_counts = oracle_count_outcomes(x_bits, a, stage_inputs, stage_outcomes)
    assert list(outcome_counts.items()) == list(oracle_counts.items())


# --- interval rows of the grid pointers ----------------------------------------------
# A frontier pointer scales one central profile by e_n on every interval
# (2n-1, 2n+1], so a reading lies in row n with probability e_n^2 / sum(e^2)
# and its collapse needs only e_n and e_{n+1}: the profile cancels.  That is
# why a frontier Bob's collapse depends on the sign of the reading alone
# (bar the edge rows), and why (F, G) is all a stage needs.


def frontier_rows(target_precision: float, worst: bool = False) -> np.ndarray:
    """The envelope e_n of make_optimal(target), any profile, or of make_worst(target)."""
    envelope = _frontier_envelope(target_precision, round(1.0 / DEFAULT_GRID_SPACING))
    if worst:
        envelope[_odd_rows(envelope.size)] = 0.0
    return envelope


def interval_rows(envelope: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(CDF of the row masses e_n^2, 1.0 from the last non-zero one on; e_n padded with a zero row each end)."""
    masses = envelope * envelope
    cdf = np.cumsum(masses)
    cdf /= float(np.sum(masses))
    cdf[np.flatnonzero(masses)[-1] :] = 1.0
    return cdf, np.pad(envelope, 1)


@functools.cache
def row_stages() -> dict:
    """Row envelopes, each with its grid twin: a grid whose intervals scale one profile by the envelope.

    The bump grid's profile differs from the flat one, which must not matter.
    """
    return {
        "optimal-0.8": (frontier_rows(0.8), make_optimal(0.8)),
        "optimal-0.05": (frontier_rows(0.05), make_optimal(0.05)),
        "bump-0.6": (frontier_rows(0.6), make_optimal(0.6, "smooth_bump")),
        "worst-0.5": (frontier_rows(0.5, worst=True), make_worst(0.5)),
        "square-1": (np.ones(1), make_square(1.0)),
        "square-3": (np.ones(3), make_square(3.0)),
    }


def oracle_rows(grid: PointerState, envelope: np.ndarray) -> np.ndarray:
    """Row n + N of every node of the grid, the one whose interval (2n-1, 2n+1] holds it."""
    return np.rint(grid.positions / 2.0).astype(np.intp) + envelope.size // 2


@pytest.mark.parametrize("name", list(row_stages()))
def test_row_masses_are_the_node_masses_of_each_row(name):
    envelope, grid = row_stages()[name]
    row_cdf, amplitudes = interval_rows(envelope)
    assert row_cdf.size % 2 == 1
    np.testing.assert_array_equal(amplitudes, np.pad(envelope, 1))
    node_rows = oracle_rows(grid, envelope)
    masses = grid.samples**2
    held = masses > 0.0
    # the grid's mass lies in the envelope's rows
    assert 0 <= node_rows[held].min() and node_rows[held].max() < row_cdf.size
    oracle_pmf = np.bincount(node_rows[held], weights=masses[held], minlength=row_cdf.size) / np.sum(masses)
    assert oracle_pmf.size == row_cdf.size
    np.testing.assert_allclose(np.diff(row_cdf, prepend=0.0), oracle_pmf, rtol=0.0, atol=1e-12)
    assert row_cdf[-1] == 1.0
    # the node CDF at each row's last node: a reading can fall in another row
    # than its node only for a uniform between the two, a gap of at most 1.2e-12
    # (G = 0.05, where the node cumsum rounds over 662,528 nodes)
    last_nodes = np.searchsorted(node_rows, np.arange(row_cdf.size), side="right") - 1
    node_cdf = np.concatenate([[0.0], oracle_reading_cdf(grid)])[last_nodes + 1]
    np.testing.assert_allclose(row_cdf, node_cdf, rtol=0.0, atol=2e-12)


@pytest.mark.parametrize("name", list(row_stages()))
def test_row_readings_match_node_readings_trial_by_trial(name):
    # one stage on the same uniforms, read once by row and once by node of
    # the grid twin, as the reading-level oracle does
    envelope, grid = row_stages()[name]
    rng = np.random.default_rng(31)
    trials = 100_000
    bloch = rng.normal(size=(3, trials))
    bloch *= rng.random(trials) ** (1.0 / 3.0) / np.linalg.norm(bloch, axis=0)  # uniform in the ball
    directions = rng.normal(size=(3, trials))
    directions /= np.linalg.norm(directions, axis=0)
    c = np.einsum("it,it->t", directions, bloch)
    plus = rng.random(trials) < (1.0 + c) / 2.0
    u = rng.random(trials)

    row_cdf, amplitudes = interval_rows(envelope)
    row = np.searchsorted(row_cdf, u, side="right")
    by_row = collapse_bloch(bloch, directions, amplitudes[row + plus], amplitudes[row + plus + 1], c)

    node = np.searchsorted(oracle_reading_cdf(grid), u, side="right")
    shift = 2 * round(1.0 / grid.grid_spacing)
    padded = np.pad(grid.samples, 2 * shift)
    lower = node + shift * (1 + plus)  # the padded index of q - 1
    by_node = collapse_bloch(bloch, directions, padded[lower], padded[lower + shift], c)
    readings = grid.positions[node] + np.where(plus, 1.0, -1.0)

    np.testing.assert_array_equal(row, oracle_rows(grid, envelope)[node])
    np.testing.assert_array_equal(row + plus > row_cdf.size // 2, readings > 0.0)
    np.testing.assert_allclose(by_row, by_node, rtol=0.0, atol=1e-15)


# --- the outcome law: pointer readings, conditional maps and counts ------------------
# run_chain draws every Bob's outcome from the conditional maps C_{y,b} of
# its (F, G); the grid oracle samples actual readings, collapses each
# through K_q and reads its sign.  Each is fitted to analytic_joint.


def strength_chain(strengths, biases) -> BellChainConfig:
    """The Tsirelson chain with one Bob of each strength and bias."""
    alice = tsirelson_alice()
    bob = tsirelson_bob()
    stages = tuple(BobStage(bob[0], bob[1], s, bias=b) for s, b in zip(strengths, biases))
    return BellChainConfig(alice[0], alice[1], stages=stages)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", list(row_stages()))
def test_oracle_run_chain_matches_analytic_joint(name, seed):
    # a weak optimal Bob, then the named pointer twice, the last Bob biased;
    # the analytic joint reads each grid's (F, G) by quadrature
    grids = [make_optimal(0.8), row_stages()[name][1], row_stages()[name][1]]
    cfg = strength_chain([strength_of(grid) for grid in grids], (0.5, 0.5, 0.3))
    oracle = oracle_run_chain(cfg, grids, 200_000, seed)
    chi2 = chi_square_report(oracle.outcome_counts, analytic_joint(cfg), oracle.trials)
    assert chi2.passed, chi2


def test_run_chain_reads_zero_beyond_both_grid_edges():
    # flat pointers filling their grids, (-3, 3) and the four nodes nearest 0
    # (inside the central interval): every reading displaced outwards looks
    # up phi up to two units past an edge.  The oracle reads those readings
    # on the grid; run_chain reads the grid's (F, G), whose sums see zero
    # past the edges.  Each is fitted to analytic_joint.
    cells = 64
    grids = (
        PointerState(np.full(6 * cells, 1.0 / math.sqrt(6.0)), 1.0 / cells),
        PointerState(np.full(4, 4.0), 1.0 / cells),
    )
    for grid in grids:
        for n_stages in (1, 2):
            cfg = strength_chain([strength_of(grid)] * n_stages, (0.5, 0.5))
            joint = analytic_joint(cfg)
            for report in (oracle_run_chain(cfg, [grid] * n_stages, 100_000, 11), run_chain(cfg, 100_000, 11)):
                chi2 = chi_square_report(report.outcome_counts, joint, report.trials)
                assert chi2.passed, (grid.samples.size, n_stages, chi2)


def three_stage_config() -> BellChainConfig:
    """A weak optimal Bob, a square pointer and a strong Bob, biased 0.3, 0.6 and 0.5."""
    strengths = (_family_strength("optimal", 0.8), _family_strength("square", 1.5), STRONG)
    return strength_chain(strengths, (0.3, 0.6, 0.5))


def random_chain_config() -> BellChainConfig:
    """Two random stages after random Alice directions, on a random two-qubit state."""
    rng = np.random.default_rng(2026)
    stages = (random_stage(rng), random_stage(rng))
    initial = random_density(rng, dim=4)
    return BellChainConfig(random_direction(rng), random_direction(rng), stages=stages, initial_state=initial)


CHAINS = {
    **{f"double-{g}": functools.partial(_montecarlo_config, "double", g) for g in (0.8, 0.3, 0.002, 1.0)},
    "single-0.5": functools.partial(_montecarlo_config, "single", 0.5),
    "three-stage": three_stage_config,
    "random-state": random_chain_config,
}


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("chain", list(CHAINS))
def test_run_chain_matches_analytic_joint(chain, seed):
    cfg = CHAINS[chain]()
    report = run_chain(cfg, 1_000_000, seed)
    chi2 = chi_square_report(report.outcome_counts, analytic_joint(cfg), report.trials)
    assert chi2.passed, chi2


def walk_steps(cfg: BellChainConfig) -> list:
    """The probabilities of index 1 that run_chain's _split draws each level by, in walk order: x, a, then y_k and b_k of each stage.

    Split j holds one probability per prefix cell, the bits before it
    read as a binary number; a b_k split's prefix is the key state*2 + y_k.
    They are read from the heap of every split's probability, which
    run_chain computes before its first draw.
    """
    steps = []
    split = montecarlo._split

    def recording(rng, counts, p, level):
        assert counts.shape == (2 * p.size,) and level == 2 ** len(steps)
        steps.append(p[level : 2 * level].copy())
        return split(rng, counts, p, level)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_split", recording)
        run_chain(cfg, 1, seed=0)
    return steps


def assert_chain_rule(cfg: BellChainConfig, steps: list) -> None:
    # run_chain's split probabilities are the chain rule on the key-by-key
    # joint wherever a trial can reach
    for got, want in zip(steps, oracle_chain_rule(cfg), strict=True):
        reached = ~np.isnan(want)
        np.testing.assert_allclose(got[reached], want[reached], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("chain", ["single-0.5", "double-0.8", "three-stage"])
def test_run_chain_draws_its_splits_in_the_documented_order(chain):
    # the module docstring's splits, one cell at a time, each a scalar
    # binomial of the same generator: a vectorized draw reads the stream
    # element by element
    cfg = CHAINS[chain]()
    trials, seed = 100_000, 31
    steps = walk_steps(cfg)
    assert_chain_rule(cfg, steps)
    rng = np.random.Generator(np.random.Philox(key=seed))

    def split(counts, probabilities):
        out = []
        for n, p in zip(counts, probabilities):
            ones = int(rng.binomial(n, p if n else 0.0))
            out += [n - ones, ones]
        return out

    counts = [trials]
    for step in steps:
        counts = split(counts, step)
    n_bits = 2 * len(cfg.stages) + 2
    expected = {}
    for cell, count in enumerate(counts):
        if count:
            bits = [(cell >> (n_bits - 1 - i)) & 1 for i in range(n_bits)]  # x, a, y_1, b_1, ..
            signs = [2 * bit - 1 for bit in bits]
            expected[(bits[0], *bits[2::2], signs[1], *signs[3::2])] = count
    assert list(run_chain(cfg, trials, seed).outcome_counts.items()) == sorted(expected.items())


@pytest.mark.parametrize("mass, split", [(ZERO_MASS, 0.0), (math.nextafter(ZERO_MASS, 1.0), None)])
def test_run_chain_zeroes_cells_of_mass_at_most_zero_mass(monkeypatch, mass, split):
    # cell 1 of the joint is the +1 side of its last split: a mass of
    # exactly ZERO_MASS is zeroed, so that split is exactly 0.0, and the
    # next float up is kept
    cfg = double_config()
    unpatched = walk_steps(cfg)[-1]
    joint = bell._chain_joint(cfg).copy()
    joint.flat[0] += joint.flat[1] - mass
    joint.flat[1] = mass
    monkeypatch.setattr(montecarlo, "_chain_joint", lambda cfg: joint)
    last = walk_steps(cfg)[-1]
    if split is None:
        assert last[0] == mass / (joint.flat[0] + mass) > 0.0
    else:
        assert last[0] == split
    np.testing.assert_array_equal(last[1:], unpatched[1:])


def chain_config(n_stages: int, later: tuple = ()) -> BellChainConfig:
    """A weak optimal Bob, then the later strengths (strong ones by default), the last Bob biased 0.3."""
    strengths = [_family_strength("optimal", 0.8), *(later or (STRONG, STRONG))][:n_stages]
    return strength_chain(strengths, [0.5] * (n_stages - 1) + [0.3])


def assert_matches_the_whole_run(cfg: BellChainConfig, trials: int, seed: int, chunk: int) -> None:
    # run_chain splits by the chain rule, and its report is that of the
    # same splits drawn chunk cells at a time and tallied trial by trial:
    # the report must not depend on how a split's cells are cut
    steps = walk_steps(cfg)
    assert_chain_rule(cfg, steps)
    report = run_chain(cfg, trials, seed)
    oracle = oracle_split_run(cfg, trials, seed, chunk, steps)
    assert report.to_dict() == oracle.to_dict()
    assert [_report_fields(bob) for bob in report.per_bob] == [_report_fields(bob) for bob in oracle.per_bob]
    assert list(report.outcome_counts.items()) == list(oracle.outcome_counts.items())


# the two tests below check run_chain's splits against the chain rule and
# its report against the same splits drawn in chunks of cells and tallied
# trial by trial (assert_matches_the_whole_run)
@pytest.mark.parametrize("n_stages", [1, 2, 3])
@pytest.mark.parametrize("chunk", [37, 2**15])
@pytest.mark.parametrize("whole_chunks, extra", [(0, 1), (0, 3), (1, -1), (1, 1), (3, 5)])
def test_run_chain_matches_the_chunked_split_oracle(n_stages, chunk, whole_chunks, extra):
    # a chunk of 37 cuts the later splits' 64, 128 and 256 cells; 2**15 cuts none
    trials = whole_chunks * chunk + extra
    assert_matches_the_whole_run(chain_config(n_stages), trials, 20240817 + trials, chunk)


@pytest.mark.parametrize("n_stages", [2, 3])
@pytest.mark.parametrize("chunk", [37, 2**15])
@pytest.mark.parametrize("whole_chunks, extra", [(0, 3), (1, 1), (2, 5)])
def test_run_chain_matches_the_chunked_split_oracle_on_sparse_pointers(n_stages, chunk, whole_chunks, extra):
    # the (F, G) of a worst-case pointer (every other interval row zeroed, F = 0),
    # then of a G = 0.05 frontier pointer (647 rows)
    cfg = chain_config(n_stages, (_family_strength("worst", 0.5), _family_strength("optimal", 0.05)))
    trials = whole_chunks * chunk + extra
    assert_matches_the_whole_run(cfg, trials, 1302 + trials, chunk)


def envelope_strength(envelope: np.ndarray) -> MeasurementStrength:
    """(F, G) of a pointer whose intervals scale one profile by the envelope: sum(e_n e_{n+1}) and e_0^2 over sum(e_n^2)."""
    total = float(np.sum(envelope * envelope))
    return MeasurementStrength(float(np.sum(envelope[:-1] * envelope[1:])) / total, envelope[envelope.size // 2] ** 2 / total)


def collapse_walk(cfg: BellChainConfig, envelopes: list) -> list:
    """Each stage's P(b=+1) of every key = state*2 + y, from the collapse of every reading by interval row.

    A reading is a row n and a shift +-1: row mass e_n^2 / sum(e^2) times
    the branch weight (1 +- c)/2, collapsed by the amplitudes of the rows
    it lies between, as a trial of the grid oracle is.  The next state of
    each key and sign is the weighted mean of the collapses of that sign,
    row key*2 + b_index (b_index 1 is b = +1); Alice's steered states come
    from the complex state, row 2x + a_index.
    """
    _, steered = oracle_alice_steering(cfg)
    states = steered[:, :, ::-1].reshape(3, 4)  # (3, state)
    probabilities = []
    for stage, envelope in zip(cfg.stages, envelopes):
        row_cdf, amplitudes = interval_rows(envelope)
        rows = np.arange(row_cdf.size)
        masses = np.diff(row_cdf, prepend=0.0)
        d = np.stack([stage.dir0.vector, stage.dir1.vector], axis=1)[:, None, :, None, None]  # (3, 1, y, 1, 1)
        r = states[:, :, None, None, None]  # (3, state, 1, 1, 1)
        plus = np.arange(2)  # shift index 1 is +1
        c = np.einsum("i...,i...->...", d, r)
        weight = masses[:, None] * (1.0 + (2 * plus - 1) * c) / 2.0  # (state, y, row, shift)
        with np.errstate(divide="ignore", invalid="ignore"):
            collapsed = collapse_bloch(r, d, amplitudes[rows[:, None] + plus], amplitudes[rows[:, None] + plus + 1], c)
        positive = rows[:, None] + plus > row_cdf.size // 2
        signs = np.stack([~positive, positive])  # (b_index, row, shift)
        by_sign = np.where(signs[:, None, None], weight, 0.0).sum(axis=(-2, -1))  # (b_index, state, y)
        moments = np.where(signs[:, None, None] & (weight > 0.0), weight * collapsed[:, None], 0.0).sum(axis=(-2, -1))
        probabilities.append(by_sign[1].ravel())
        with np.errstate(divide="ignore", invalid="ignore"):
            states = np.moveaxis(moments / by_sign, 1, -1).reshape(3, -1)  # (3, (state, y, b_index))
    return probabilities


@pytest.mark.parametrize("name", list(row_stages()))
@pytest.mark.parametrize("chunk", [37, 2**15])
def test_split_probabilities_match_the_per_reading_collapse(name, chunk):
    # a weak Bob, then the named pointer twice: the probabilities run_chain
    # splits each b_k by are those of collapsing every reading one by one,
    # and its run is the split walk's
    envelopes = [frontier_rows(0.8), row_stages()[name][0], row_stages()[name][0]]
    cfg = strength_chain([envelope_strength(e) for e in envelopes], (0.5, 0.5, 0.3))
    for got, want in zip(walk_steps(cfg)[3::2], collapse_walk(cfg, envelopes), strict=True):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    trials = 3 * chunk + 5
    assert_matches_the_whole_run(cfg, trials, 4242 + trials, chunk)


def test_one_row_stage_collapses_to_its_direction_and_draws_no_position():
    # a weak Bob, then two strong ones: the middle Bob hands on its own
    # direction, +d_y on the +1 branch and -d_y on the -1 branch, so the
    # last Bob reads +1 with probability (1 + b_2 d_{y_3}.d_{y_2}) / 2, up to
    # the rounding of the joint (1.2e-15 at most here)
    cfg = chain_config(3)
    steps = walk_steps(cfg)
    p_alice, p_stages = steps[1], steps[3::2]
    # every (state, y) of the first two Bobs is reached: each probability lies in (0, 1)
    assert all(np.all((p > 0.0) & (p < 1.0)) for p in (p_alice, *p_stages[:2]))
    middle, last = (np.stack([stage.dir0.vector, stage.dir1.vector]) for stage in cfg.stages[1:])
    key = np.arange(p_stages[2].size)  # ((state*2 + y_2)*2 + b_index)*2 + y_3
    y_last, b_middle, y_middle = key % 2, 2 * (key // 2 % 2) - 1, key // 4 % 2
    expected = (1.0 + b_middle * np.einsum("ki,ki->k", last[y_last], middle[y_middle])) / 2.0
    np.testing.assert_allclose(p_stages[2], expected, rtol=0.0, atol=2e-15)

    # a run draws no reading position, only the splits: x, a, then y_k and b_k of each stage
    assert [step.size for step in steps] == [1, 2, 4, 8, 16, 32, 64, 128]


def test_unreachable_branches_split_with_zero_and_stay_empty():
    # three strong Bobs along Alice's own directions: a Bob that repeats the
    # one before it reads its outcome with probability 1, so the other
    # branch has no mass; no trial reaches it, its splits read 0, and
    # neither a RuntimeWarning nor a binomial of an undefined probability escapes
    cfg = BellChainConfig(DIR_Z, DIR_X, stages=(BobStage(DIR_Z, DIR_X, STRONG, bias=0.5),) * 3)
    steps = walk_steps(cfg)
    assert np.isin(steps[3], (0.0, 1.0)).any()
    chain_rule = oracle_chain_rule(cfg)
    assert np.isnan(chain_rule[5]).any() and np.isnan(chain_rule[7]).any()
    assert_chain_rule(cfg, steps)
    for got, want in zip(steps, chain_rule):
        assert np.all(got[np.isnan(want)] == 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_chain(cfg, 1_000_000, seed=8)
    joint = analytic_joint(cfg)
    impossible = {key for key, p in joint.items() if p <= ZERO_MASS}
    assert impossible and not impossible & set(report.outcome_counts)
    assert chi_square_report(report.outcome_counts, joint, report.trials).passed


def test_split_reads_empty_cells_as_zero():
    # p = 0 and 1 send a whole count one way; a cell with no count may hold any p.
    # The level of nodes 4..7 writes nodes 8..15 of the heap and no other
    rng = np.random.Generator(np.random.Philox(key=3))
    counts = np.array([-1, -1, -1, -1, 10, 10, 0, 0, *[-1] * 8])
    p = np.array([-1.0] * 4 + [0.0, 1.0, math.nan, 7.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _split(rng, counts, p, 4)
    assert counts.tolist() == [-1, -1, -1, -1, 10, 10, 0, 0, 10, 0, 0, 10, 0, 0, 0, 0]


@pytest.mark.parametrize("n_stages", [1, 2, 3])
def test_a_run_makes_one_binomial_call_per_split_level(monkeypatch, n_stages):
    # 2n + 2 splits, x, a, then y_k and b_k of each stage: one
    # Generator.binomial call each, over all 2**j prefix cells of split j
    calls = []

    class Counting(np.random.Generator):
        def binomial(self, n, p, size=None):
            calls.append((np.array(n), np.array(p)))
            return super().binomial(n, p, size)

    cfg = chain_config(n_stages)
    expected = run_chain(cfg, 100_000, 17)
    monkeypatch.setattr(montecarlo.np.random, "Generator", Counting)
    report = run_chain(cfg, 100_000, 17)
    assert len(calls) == 2 * n_stages + 2
    assert [(n.size, p.size, int(n.sum())) for n, p in calls] == [(2**j, 2**j, 100_000) for j in range(len(calls))]
    assert list(report.outcome_counts.items()) == list(expected.outcome_counts.items())


def test_strong_double_leaves_every_impossible_cell_empty():
    # two strong Bobs reading one direction with different outcomes: the
    # joint is rounding noise there, and the second Bob's split repeats
    # the first Bob's outcome exactly, p = 1 after b_1 = +1 and 0 after -1
    cfg = _montecarlo_config("double", 1.0)
    joint = analytic_joint(cfg)
    impossible = {key for key, p in joint.items() if p <= ZERO_MASS}
    assert impossible == {key for key in joint if key[1] == key[2] and key[4] != key[5]}
    assert len(impossible) == 16
    prefix = np.arange(32)  # the b_2 split's prefix bits (x, a, y_1, b_1, y_2)
    b_1, same_input = prefix >> 1 & 1, (prefix >> 2 & 1) == (prefix & 1)
    steps = walk_steps(cfg)
    assert_chain_rule(cfg, steps)
    p_second = steps[5]
    assert same_input.sum() == 16
    np.testing.assert_array_equal(p_second[same_input], b_1[same_input].astype(float))
    report = run_chain(cfg, 1_000_000, seed=7)
    assert not impossible & set(report.outcome_counts)
    chi2 = chi_square_report(report.outcome_counts, joint, report.trials)
    assert (chi2.dof, chi2.dropped_cells) == (47, 16)


def test_config_digest_and_report_read_only_the_stage_strengths():
    # (F, G) is all a stage is: the frontier sums at two spacings and a bare
    # copy of the pair give one digest and one report; another G gives others
    first = _family_strength("optimal", 0.3)
    others = (_family_strength("optimal", 0.3, 1.0 / 512), MeasurementStrength(first.quality_factor, first.precision))
    reports = []
    for weak in (first, *others, _family_strength("optimal", 0.31)):
        report = run_chain(strength_chain((weak, STRONG), (0.5, 0.5)), 100_000, 5)
        reports.append((report.config_digest, json.dumps(report.to_dict()), list(report.outcome_counts.items())))
    assert reports[0] == reports[1] == reports[2]
    assert reports[3][0] != reports[0][0] and reports[3][2] != reports[0][2]


def test_run_chain_takes_any_measurement_strength():
    # a pointer grid is refused when its stage is made; any MeasurementStrength
    # runs, the other families' closed forms among them
    bob = tsirelson_bob()
    grids = (
        make_optimal(0.8),
        make_worst(0.5),
        make_square(1.0),
        make_gaussian(1.0),
        make_exponential(0.5),
        # flat on (-2, 2): the rows (-3, -1] and (1, 3] are half empty
        PointerState(np.full(4 * 64, 0.5), 1.0 / 64),
    )
    for grid in grids:
        with pytest.raises(InvalidParameterError, match="strength_of"):
            BobStage(bob[0], bob[1], grid, bias=0.5)
    for family, value in (("square", 1.5), ("gaussian", 1.0), ("exponential", 0.5), ("worst", 0.5)):
        cfg = strength_chain((_family_strength(family, value), STRONG), (0.5, 0.5))
        report = run_chain(cfg, 1_000_000, seed=13)
        assert chi_square_report(report.outcome_counts, analytic_joint(cfg), report.trials).passed, family
    with pytest.raises(InvalidParameterError):
        run_chain(double_config(), 0, seed=0)
    # one trial is the least run accepted
    assert run_chain(double_config(), 1, seed=0).trials == 1


# --- analytic joint and chi-square ---------------------------------------------------


def test_analytic_joint_normalizes_and_matches_the_closed_form():
    cfg = double_config()
    joint = analytic_joint(cfg)
    assert sum(joint.values()) == pytest.approx(1.0, abs=1e-12)
    alice = tsirelson_alice()
    bob = tsirelson_bob()
    for (x, y1, y2, a, b1, b2), prob in (
        ((0, 0, 1, 1, 1, -1), None),
        ((1, 1, 0, -1, 1, 1), None),
        ((0, 1, 1, -1, -1, -1), None),
    ):
        got = joint[(x, y1, y2, a, b1, b2)]
        u, w, v = alice[x].vector, bob[y1].vector, bob[y2].vector
        want = oracle_triple_closed_form(a, b1, b2, u, w, v, 0.6, 0.8) / 8.0
        assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("n_stages", [1, 2, 3])
def test_analytic_joint_sums_alice_in_the_fixed_order(monkeypatch, n_stages):
    # Alice's u_x.R summed x, y, z in that order before the stages, as the
    # key-by-key oracle sums it in Python floats, and the joint read alike
    # whatever the memory layout of the branch states (test_properties
    # checks the layout propagate returns): np.einsum picks
    # its order by the layout, and on contiguous columns it moved 2, 4 and 8
    # entries of these 1-, 2- and 3-stage joints
    rng = np.random.default_rng(60 + n_stages)
    stages = tuple(
        BobStage(random_direction(rng), random_direction(rng), random_strength(rng), bias=0.3)
        for _ in range(n_stages)
    )
    initial = random_density(rng, dim=4)
    cfg = BellChainConfig(random_direction(rng), random_direction(rng), stages=stages, initial_state=initial)

    def column_major(pauli, maps):
        return [np.ascontiguousarray(np.swapaxes(s, -1, -2)).swapaxes(-1, -2) for s in propagate(pauli, maps)]

    monkeypatch.setattr(bell, "propagate", column_major)
    assert list(analytic_joint(cfg).items()) == list(oracle_analytic_joint(cfg).items())


def test_chi_square_calibration_under_the_null():
    rng = np.random.default_rng(2024)
    cfg = double_config()
    joint = analytic_joint(cfg)
    keys = sorted(joint)
    probs = np.array([joint[k] for k in keys])
    failures = 0
    trials = 50_000
    for _ in range(1000):
        counts = rng.multinomial(trials, probs)
        observed = {k: int(c) for k, c in zip(keys, counts)}
        report = chi_square_report(observed, joint, trials)
        failures += 0 if report.passed else 1
    assert failures <= 1  # pass rate >= 99.9%


def test_chi_square_detects_wrong_precision():
    rng = np.random.default_rng(5)
    cfg_true = double_config(0.8)
    cfg_wrong = double_config(0.7)
    true_joint = analytic_joint(cfg_true)
    wrong_joint = analytic_joint(cfg_wrong)
    keys = sorted(true_joint)
    counts = rng.multinomial(1_000_000, np.array([true_joint[k] for k in keys]))
    observed = {k: int(c) for k, c in zip(keys, counts)}
    assert chi_square_report(observed, true_joint, 1_000_000).passed
    assert not chi_square_report(observed, wrong_joint, 1_000_000).passed


def test_chi_square_empirical_chain_against_analytic_joint():
    cfg = double_config()
    report = run_chain(cfg, 200_000, seed=17)
    chi2 = chi_square_report(report.outcome_counts, analytic_joint(cfg), report.trials)
    assert chi2.passed
    assert (chi2.dof, chi2.dropped_cells) == (63, 0)


def test_chi_square_cell_handling():
    observed = {"a": 50, "b": 50}
    expected = {"a": 0.5, "b": 0.5, "never": 0.0}
    report = chi_square_report(observed, expected, 100)
    assert report.passed and report.dropped_cells == 1
    impossible = chi_square_report({"a": 99, "never": 1}, expected, 100)
    assert not impossible.passed and impossible.p_value == 0.0
    with pytest.raises(InvalidParameterError):
        chi_square_report(observed, expected, 0)
    # one trial is the least fit accepted
    assert chi_square_report({"a": 1}, expected, 1).dof == 1


@pytest.mark.parametrize("p_value, passed", [(1e-3, False), (math.nextafter(1e-3, 1.0), True)])
def test_chi_square_passes_only_above_its_p_value_gate(monkeypatch, p_value, passed):
    # the gate is p > 1e-3: a tail of exactly 1e-3 fails, the next float passes
    monkeypatch.setattr(montecarlo, "_chi_square_tail", lambda statistic, dof: p_value)
    report = chi_square_report({"a": 50, "b": 50}, {"a": 0.5, "b": 0.5}, 100)
    assert report.p_value == p_value
    assert report.passed is passed


def test_chi_square_counts_rounding_noise_as_an_impossible_cell():
    # an impossible cell's analytic mass is rounding noise of either sign; its
    # sign must not decide whether the cell is dropped
    expected = {"a": 0.5, "b": 0.5, "noise+": 5.1e-18, "noise-": -1.6e-18, "edge": ZERO_MASS}
    report = chi_square_report({"a": 50, "b": 50}, expected, 100)
    assert (report.dof, report.dropped_cells, report.statistic, report.p_value) == (1, 3, 0.0, 1.0)
    observed = chi_square_report({"a": 49, "b": 50, "noise+": 1}, expected, 100)
    assert (observed.p_value, observed.passed) == (0.0, False)
    kept = chi_square_report({"a": 50, "b": 50}, {**expected, "rare": 2 * ZERO_MASS}, 100)
    assert kept.dof == 2 and kept.dropped_cells == 3


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_chi_square_drops_every_impossible_cell_of_two_strong_bobs(seed):
    # two strong Bobs reading one direction with different outcomes: 16 of the 64 cells
    cfg = _montecarlo_config("double", 1.0)
    report = run_chain(cfg, 100_000, seed)
    chi2 = chi_square_report(report.outcome_counts, analytic_joint(cfg), report.trials)
    assert (chi2.dof, chi2.dropped_cells) == (47, 16)
    assert chi2.passed


def _oracle_tail(statistic, dof):
    return mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(statistic) / 2, mpmath.inf, regularized=True)


def test_chi_square_tail_matches_the_regularized_gamma_oracles():
    # the closed forms against mpmath (30 digits) and scipy.special.gammaincc
    # for every dof a fit of 256 cells can have, statistics from 0 to ~1,300
    statistics = [0.0, 1e-300, 1e-12, 0.3, 2.5] + [float(x) for x in np.linspace(10.0, 1300.0, 12)]
    with mpmath.workdps(30):
        for dof in range(1, 256):
            for statistic in statistics + [0.5 * dof, dof - 0.5, float(dof), 1.5 * dof, 2.0 * dof]:
                p = _chi_square_tail(statistic, dof)
                oracle = _oracle_tail(statistic, dof)
                if oracle > 1e-290:
                    assert abs(p - oracle) <= 1e-12 * oracle, (dof, statistic)
                    reference = float(gammaincc(dof / 2, statistic / 2))
                    assert abs(p - reference) <= 1e-12 * reference, (dof, statistic)
                else:
                    assert 0.0 <= p <= 2e-290, (dof, statistic)


@pytest.mark.parametrize("dof", [1, 2, 15, 63, 254, 255])
def test_chi_square_tail_underflows_to_zero(dof):
    for statistic in (5e3, 1e5, 1e300, math.inf):
        assert _chi_square_tail(statistic, dof) == 0.0
    assert float(_oracle_tail(5e3, dof)) == 0.0  # the true tail rounds to 0 as well


def test_chi_square_ignores_insertion_order():
    # summing in set order moved the statistic's last bits on 6 of these 20 seeds
    cfg = double_config()
    joint = analytic_joint(cfg)
    for seed in range(20):
        report = run_chain(cfg, 20_000, seed)
        forward = chi_square_report(report.outcome_counts, joint, report.trials)
        backward = chi_square_report(
            dict(reversed(report.outcome_counts.items())), dict(reversed(joint.items())), report.trials
        )
        assert repr(forward) == repr(backward)


def dict_path_bob_blocks(outcome_counts: dict, n_stages: int) -> list:
    """Each Bob's to_dict block from a run's keyed counts, tallied key by key: a and b_k times the count."""
    blocks = []
    for k in range(n_stages):
        n = {(x, y): 0 for x in (0, 1) for y in (0, 1)}
        net = dict.fromkeys(n, 0)
        for key, count in outcome_counts.items():
            cell = (key[0], key[1 + k])
            n[cell] += count
            net[cell] += key[n_stages + 1] * key[n_stages + 2 + k] * count
        e = {cell: net[cell] / n[cell] if n[cell] else math.nan for cell in n}
        chsh = stderr = math.nan
        if 0 not in n.values():
            variance = 0.0
            for cell in n:
                variance += (1.0 - e[cell] * e[cell]) / n[cell]
            chsh = e[(0, 0)] + e[(0, 1)] + e[(1, 0)] - e[(1, 1)]
            stderr = math.sqrt(variance)
        blocks.append(
            {
                "E": {f"{x}{y}": value if math.isfinite(value) else None for (x, y), value in e.items()},
                "chsh": chsh if math.isfinite(chsh) else None,
                "stderr": stderr if math.isfinite(stderr) else None,
                "counts": {f"{x}{y}": count for (x, y), count in n.items()},
                "insufficient": 0 in n.values(),
            }
        )
    return blocks


@pytest.mark.parametrize("scenario", ["single", "double"])
@pytest.mark.parametrize("g", ["0.8", "0.002", "1.0"])
def test_command_fit_and_reports_equal_the_dict_path(tmp_path, scenario, g):
    # the command fits the run's table against its joint cell by cell in C
    # order and reads each Bob's marginal counts; the keyed dicts, fitted
    # in sorted key order and tallied key by key, give the same bits. Three
    # trials leave input cells empty; two strong Bobs (--g 1.0, double)
    # leave 16 impossible cells, which the fit drops
    cfg = _montecarlo_config(scenario, float(g))
    joint = analytic_joint(cfg)
    for seed in (1, 530, 1302, 2739):
        for trials in ("1", "3", "32771", "1e6", "1e9"):
            out = tmp_path / f"{seed}_{trials}.json"
            argv = ["montecarlo", "--scenario", scenario, "--g", g, "--trials", trials, "--seed", str(seed)]
            assert main([*argv, "--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            report = run_chain(cfg, int(float(trials)), seed)
            chi2 = chi_square_report(report.outcome_counts, joint, report.trials).to_dict()
            bobs = dict_path_bob_blocks(report.outcome_counts, len(cfg.stages))
            assert json.dumps(payload["chi_square"], sort_keys=True) == json.dumps(chi2, sort_keys=True), argv
            assert json.dumps(payload["per_bob"], sort_keys=True) == json.dumps(bobs, sort_keys=True), argv
    assert chi2["dropped_cells"] == (16 if (scenario, g) == ("double", "1.0") else 0)


def test_chi_square_early_return_ignores_hash_seed():
    # string keys hash differently under each PYTHONHASHSEED; the impossible
    # cell "z" sorts last, so all five possible cells are counted before it
    script = (
        "from weakbell import chi_square_report\n"
        "cells = 'abcde'\n"
        "observed = {**{c: 2 for c in cells}, 'z': 1}\n"
        "expected = {**{c: 0.2 for c in cells}, 'z': 0.0}\n"
        "print(repr(chi_square_report(observed, expected, 11)))\n"
    )
    outputs = []
    for hash_seed in ("0", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert "dof=4," in outputs[0] and "passed=False" in outputs[0]


def test_report_json_shape():
    report = run_chain(double_config(), 1000, seed=1)
    payload = report.to_dict()
    assert set(payload) == {"config_digest", "seed", "trials", "per_bob"}
    assert {"E", "chsh", "stderr", "counts", "insufficient"} == set(payload["per_bob"][0])
    assert set(payload["per_bob"][0]["E"]) == {"00", "01", "10", "11"}
    assert set(payload["per_bob"][0]["counts"]) == {"00", "01", "10", "11"}
