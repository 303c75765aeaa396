import functools
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy.special import gammaincc

from conftest import (
    kraus_at_reading,
    oracle_analytic_joint,
    oracle_bob_reports,
    oracle_count_outcomes,
    oracle_reading_cdf,
    oracle_run_chain,
    outcome_probabilities,
    projectors,
    random_density,
    random_direction,
    random_strength,
    weak_conditional,
)

from weakbell import (
    BellChainConfig,
    BobStage,
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
    triple_probability,
    tsirelson_alice,
    tsirelson_bob,
)
from weakbell import montecarlo
from weakbell.bell import TripleGeometry, propagate
from weakbell.channel import DIR_X, DIR_Z, collapse_bloch
from weakbell.cli import _montecarlo_config
from weakbell.montecarlo import (
    CHUNK_TRIALS,
    MAX_TABLE_STATES,
    ZERO_MASS,
    _alice_steering,
    _chi_square_tail,
    _outcome_table,
    _reports,
    _run_chain,
    _stage_rows,
    _stages,
    _state_tables,
    _uniforms,
)
from weakbell.pointer import STRONG_ROWS, RowStrength, _frontier_strength


def double_config(target_precision=0.8):
    alice = tsirelson_alice()
    bob = tsirelson_bob()
    return BellChainConfig(
        alice[0],
        alice[1],
        stages=(
            BobStage(bob[0], bob[1], _frontier_strength(target_precision), bias=0.5),
            BobStage(bob[0], bob[1], STRONG_ROWS, bias=0.5),
        ),
    )


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
    # is 0 and sign(q) is never tied; run_chain reads the sign from the row
    for grid in (make_optimal(0.8), make_square(1.0)):
        for shift in (1.0, -1.0):
            assert np.all(grid.positions + shift != 0.0)
    # every trial is digitized to one outcome +/-1 per Bob
    assert sum(report.outcome_counts.values()) == 500
    for key in report.outcome_counts:
        assert all(b in (-1, 1) for b in key[-len(cfg.stages) :])


def test_run_chain_strong_aligned_bob_anticorrelates_exactly():
    # a strong Bob measuring along Alice's own directions sees b = -a on the singlet
    cfg = BellChainConfig(DIR_Z, DIR_X, stages=(BobStage(DIR_Z, DIR_X, STRONG_ROWS, bias=0.5),))
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
        alice[0], alice[1], stages=(BobStage(bob[0], bob[1], STRONG_ROWS, bias=0.5),)
    )
    report = run_chain(cfg, 200_000, seed=11)
    assert abs(report.per_bob[0].chsh - 2.0 * math.sqrt(2.0)) < 4.0 * report.per_bob[0].chsh_stderr


def test_run_chain_flags_missing_input_combinations():
    alice = tsirelson_alice()
    bob = tsirelson_bob()
    cfg = BellChainConfig(
        alice[0], alice[1], stages=(BobStage(bob[0], bob[1], STRONG_ROWS, bias=0.0),)
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
    per_bob, outcome_counts = _reports(_outcome_table(x_bits, a, stage_inputs, stage_outcomes))
    oracle = oracle_bob_reports(x_bits, a, stage_inputs, stage_outcomes)
    assert [_report_fields(bob) for bob in per_bob] == [_report_fields(bob) for bob in oracle]
    oracle_counts = oracle_count_outcomes(x_bits, a, stage_inputs, stage_outcomes)
    assert list(outcome_counts.items()) == list(oracle_counts.items())


def flat_three_rows() -> RowStrength:
    """The rows of a flat pointer on (-3, 3): three equal rows, F = 2/3 and G = 1/3."""
    return RowStrength(2.0 / 3.0, 1.0 / 3.0, np.ones(3))


@functools.cache
def row_stages() -> dict:
    """Row strengths as run_chain reads them, each with a grid twin for the node oracle.

    Each twin's intervals (2n-1, 2n+1] scale one profile by the strength's
    envelope; the bump grid's profile differs from the flat one its rows
    were computed with, which must not matter.
    """
    return {
        "optimal-0.8": (_frontier_strength(0.8), make_optimal(0.8)),
        "optimal-0.05": (_frontier_strength(0.05), make_optimal(0.05)),
        "bump-0.6": (_frontier_strength(0.6), make_optimal(0.6, "smooth_bump")),
        "worst-0.5": (_frontier_strength(0.5, worst=True), make_worst(0.5)),
        "square-1": (STRONG_ROWS, make_square(1.0)),
        "square-3": (flat_three_rows(), make_square(3.0)),
    }


def chain_config(n_stages: int, later: tuple = ()) -> tuple[BellChainConfig, list]:
    """A chain of a weak optimal Bob, then the later (rows, grid) pairs (strong
    ones by default), the last Bob biased; and the stages' grid twins."""
    alice = tsirelson_alice()
    bob = tsirelson_bob()
    pairs = [row_stages()["optimal-0.8"], *(later or (row_stages()["square-1"],) * 2)][:n_stages]
    biases = [0.5] * (n_stages - 1) + [0.3]
    stages = tuple(BobStage(bob[0], bob[1], rows, bias=b) for (rows, _), b in zip(pairs, biases))
    return BellChainConfig(alice[0], alice[1], stages=stages), [grid for _, grid in pairs]


def assert_matches_the_whole_run(cfg, grids, trials: int, seed: int, chunk: int, oracle=None) -> None:
    # the report must not depend on the chunk size or the number of threads
    oracle = oracle or oracle_run_chain(cfg, grids, trials, seed)
    for workers in (1, 2):
        report = _run_chain(cfg, trials, seed, chunk, workers)
        assert report.to_dict() == oracle.to_dict()
        assert [_report_fields(bob) for bob in report.per_bob] == [_report_fields(bob) for bob in oracle.per_bob]
        assert list(report.outcome_counts.items()) == list(oracle.outcome_counts.items())


@pytest.mark.parametrize("n_stages", [1, 2, 3])
@pytest.mark.parametrize("chunk", [37, CHUNK_TRIALS])
@pytest.mark.parametrize("whole_chunks, extra", [(0, 1), (0, 3), (1, -1), (1, 1), (3, 5)])
def test_chunked_run_chain_matches_the_whole_run(n_stages, chunk, whole_chunks, extra):
    trials = whole_chunks * chunk + extra
    assert_matches_the_whole_run(*chain_config(n_stages), trials, 20240817 + trials, chunk)


@pytest.mark.parametrize("n_stages", [2, 3])
@pytest.mark.parametrize("chunk", [37, CHUNK_TRIALS])
@pytest.mark.parametrize("whole_chunks, extra", [(0, 3), (1, 1), (2, 5)])
def test_chunked_run_chain_matches_the_whole_run_on_sparse_pointers(n_stages, chunk, whole_chunks, extra):
    # a worst-case pointer (every other interval row zeroed, so its row CDF has
    # flat runs), then a G = 0.05 frontier pointer (662,528 nodes in 647 rows)
    cfg, grids = chain_config(n_stages, (row_stages()["worst-0.5"], row_stages()["optimal-0.05"]))
    trials = whole_chunks * chunk + extra
    assert_matches_the_whole_run(cfg, grids, trials, 1302 + trials, chunk)


def state_tables(cfg: BellChainConfig) -> tuple[list, list]:
    """The branch thresholds and input-state tables run_chain walks cfg's trials through."""
    return _state_tables(_stages(cfg), _alice_steering(cfg)[1].reshape(3, 4))


@pytest.mark.parametrize("name", list(row_stages()))
@pytest.mark.parametrize("chunk", [37, CHUNK_TRIALS])
def test_state_tables_match_the_per_trial_collapse(monkeypatch, name, chunk):
    # a weak Bob, then the named rows twice, walked by state index, partly and
    # not at all (a cap of 256 tables only the weak Bob's 4*2*32 collapses, 0
    # none), each against the grid oracle's per-trial collapse; the G = 0.05
    # rows (648 a shifted reading can land in) would make a second table of
    # 256*2*648 states, past the cap, so that chain leaves the walk after one stage
    cfg, grids = chain_config(3, (row_stages()[name],) * 2)
    trials = 3 * chunk + 5
    oracle = oracle_run_chain(cfg, grids, trials, 4242 + trials)
    for cap, walked in ((MAX_TABLE_STATES, 1 if name == "optimal-0.05" else 3), (256, 1), (0, 0)):
        monkeypatch.setattr(montecarlo, "MAX_TABLE_STATES", cap)
        assert len(state_tables(cfg)[0]) == walked
        assert_matches_the_whole_run(cfg, grids, trials, 4242 + trials, chunk, oracle)


def test_state_tables_leave_unreachable_collapses_undefined():
    # three strong Bobs along Alice's own directions: a Bob that repeats the
    # one before it reads its outcome with probability 1, so the other branch's
    # collapse is 0/0; no trial reaches it and no RuntimeWarning escapes
    cfg = BellChainConfig(DIR_Z, DIR_X, stages=(BobStage(DIR_Z, DIR_X, STRONG_ROWS, bias=0.5),) * 3)
    thresholds, tables = state_tables(cfg)
    assert np.isnan(tables[2]).any() and np.isin(thresholds[1], (0.0, 1.0)).any()
    assert_matches_the_whole_run(cfg, [make_square(1.0)] * 3, 5_000, 8, 1_000)


def test_one_row_stage_collapses_to_its_direction_and_draws_no_position(monkeypatch):
    # a weak Bob, then two strong ones: the middle Bob's collapses are its own
    # direction, +d_y on the +1 branch and -d_y on the -1 branch, but only
    # within an ulp, and a zero component of -d_y comes out +0: the table holds
    # collapse_bloch's bits, not +-d_y
    cfg, _ = chain_config(3)
    stages = _stages(cfg)
    thresholds, tables = state_tables(cfg)
    assert len(tables) == 3
    _, directions, row_cdf, amplitudes, _ = stages[1]
    assert row_cdf.size == 1
    # every (state, y, row) is reached: each branch probability lies in (0, 1)
    # and every row of the weak Bob has mass
    assert all(np.all((t > 0.0) & (t < 1.0)) for t in thresholds[:2])
    assert np.all(np.diff(stages[0][2], prepend=0.0) > 0.0)
    state, y, row = np.indices((tables[1].shape[1], 2, 2)).reshape(3, -1)  # row 1 is the +1 branch
    got = tables[2][:, (state * 2 + y) * 2 + row]
    # one vector at a time, c from bloch_dot, as a trial that collapses its own vector
    one_by_one = collapse_bloch(tables[1][:, state], directions[:, y], amplitudes[row], amplitudes[row + 1])
    assert np.array_equal(got.view(np.int64), one_by_one.view(np.int64))
    direction = directions[:, y] * np.where(row == 1, 1.0, -1.0)
    np.testing.assert_allclose(got, direction, rtol=0.0, atol=2.0**-53)
    assert not np.array_equal(got.view(np.int64), direction.view(np.int64))

    # the one-row stages draw no position block: stage k reads its positions from block 4 + 3k
    drawn = set()
    uniforms = montecarlo._uniforms

    def recording(seed, trials, block, start, count):
        drawn.add(block)
        return uniforms(seed, trials, block, start, count)

    monkeypatch.setattr(montecarlo, "_uniforms", recording)
    run_chain(cfg, 1_000, seed=3)
    assert drawn == {0, 1, 2, 3, 4, 5, 6, 8, 9}


def test_run_chain_reads_zero_beyond_both_grid_edges():
    # flat pointers filling their grids, (-3, 3) (three whole interval rows) and
    # the four nodes nearest 0 (inside the central interval), read as rows and
    # as grids: every reading displaced outwards looks up phi up to two units
    # past an edge
    cells = 64
    pairs = (
        (flat_three_rows(), PointerState(np.full(6 * cells, 1.0 / math.sqrt(6.0)), 1.0 / cells)),
        (STRONG_ROWS, PointerState(np.full(4, 4.0), 1.0 / cells)),
    )
    alice = tsirelson_alice()
    bob = tsirelson_bob()
    for rows, grid in pairs:
        for n_stages in (1, 2):
            stages = tuple(BobStage(bob[0], bob[1], rows) for _ in range(n_stages))
            cfg = BellChainConfig(alice[0], alice[1], stages=stages)
            assert_matches_the_whole_run(cfg, [grid] * n_stages, 5_000, 11, 1_000)


def oracle_rows(grid: PointerState, rows: RowStrength) -> np.ndarray:
    """Row n + N of every node of the grid, the one whose interval (2n-1, 2n+1] holds it."""
    return np.rint(grid.positions / 2.0).astype(np.intp) + rows.envelope.size // 2


@pytest.mark.parametrize("name", list(row_stages()))
def test_row_masses_are_the_node_masses_of_each_row(name):
    rows, grid = row_stages()[name]
    row_cdf, amplitudes = _stage_rows(rows)
    assert row_cdf.size % 2 == 1
    np.testing.assert_array_equal(amplitudes, np.pad(rows.envelope, 1))
    node_rows = oracle_rows(grid, rows)
    masses = grid.samples**2
    held = masses > 0.0
    # the grid's mass lies in the strength's rows
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
    # one stage on the same uniforms, read once by row as run_chain reads it
    # and once by node of the grid twin as the whole-run oracle does
    rows, grid = row_stages()[name]
    rng = np.random.default_rng(31)
    trials = 100_000
    bloch = rng.normal(size=(3, trials))
    bloch *= rng.random(trials) ** (1.0 / 3.0) / np.linalg.norm(bloch, axis=0)  # uniform in the ball
    directions = rng.normal(size=(3, trials))
    directions /= np.linalg.norm(directions, axis=0)
    c = np.einsum("it,it->t", directions, bloch)
    plus = rng.random(trials) < (1.0 + c) / 2.0
    u = rng.random(trials)

    row_cdf, amplitudes = _stage_rows(rows)
    row = np.searchsorted(row_cdf, u, side="right")
    by_row = collapse_bloch(bloch, directions, amplitudes[row + plus], amplitudes[row + plus + 1], c)

    node = np.searchsorted(oracle_reading_cdf(grid), u, side="right")
    shift = 2 * round(1.0 / grid.grid_spacing)
    padded = np.pad(grid.samples, 2 * shift)
    lower = node + shift * (1 + plus)  # the padded index of q - 1
    by_node = collapse_bloch(bloch, directions, padded[lower], padded[lower + shift], c)
    readings = grid.positions[node] + np.where(plus, 1.0, -1.0)

    np.testing.assert_array_equal(row, oracle_rows(grid, rows)[node])
    np.testing.assert_array_equal(row + plus > row_cdf.size // 2, readings > 0.0)
    np.testing.assert_allclose(by_row, by_node, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize(
    "trials, block, start, count", [(10, 0, 1, 9), (10, 1, 3, 5), (7, 2, 0, 7), (13, 3, 4, 9), (5, 4, 2, 3)]
)
def test_block_addressing_matches_one_sequential_stream(trials, block, start, count):
    offset = block * trials + start
    assert offset % 4 != 0
    stream = np.random.Generator(np.random.Philox(key=1302)).random(5 * trials)
    np.testing.assert_array_equal(_uniforms(1302, trials, block, start, count), stream[offset : offset + count])


def test_run_chain_requires_pointer_backed_stages(monkeypatch):
    # a pointer grid is refused when its stage is made; a strength that is not
    # a pointer's interval rows is refused by run_chain before any uniform is drawn
    def no_draws(*args):
        raise AssertionError("a uniform was drawn")

    monkeypatch.setattr(montecarlo, "_uniforms", no_draws)
    alice = tsirelson_alice()
    bob = tsirelson_bob()
    grids = (
        make_optimal(0.8),
        make_worst(0.5),
        make_square(1.0),
        make_gaussian(1.0),
        make_exponential(0.5),
        make_square(1.5),
        # flat on (-2, 2): the rows (-3, -1] and (1, 3] are half empty
        PointerState(np.full(4 * 64, 0.5), 1.0 / 64),
    )
    for grid in grids:
        with pytest.raises(InvalidParameterError, match="strength_of"):
            BobStage(bob[0], bob[1], grid, bias=0.5)
    bare = BobStage(bob[0], bob[1], MeasurementStrength(0.6, 0.8), bias=0.5)
    for stages in ((bare,), (BobStage(bob[0], bob[1], _frontier_strength(0.8), bias=0.5), bare)):
        with pytest.raises(InvalidParameterError, match="RowStrength"):
            run_chain(BellChainConfig(alice[0], alice[1], stages=stages), 10, seed=0)
    with pytest.raises(InvalidParameterError):
        run_chain(double_config(), 0, seed=0)


# --- analytic joint and chi-square ---------------------------------------------------


def test_analytic_joint_normalizes_and_matches_triple_probability():
    cfg = double_config()
    joint = analytic_joint(cfg)
    assert sum(joint.values()) == pytest.approx(1.0, abs=1e-12)
    alice = tsirelson_alice()
    bob = tsirelson_bob()
    geometry = TripleGeometry(alice=alice, first=bob, second=bob)
    strength = MeasurementStrength(0.6, 0.8)
    for (x, y1, y2, a, b1, b2), prob in (
        ((0, 0, 1, 1, 1, -1), None),
        ((1, 1, 0, -1, 1, 1), None),
        ((0, 1, 1, -1, -1, -1), None),
    ):
        got = joint[(x, y1, y2, a, b1, b2)]
        want = triple_probability(a, b1, b2, x, y1, y2, geometry, strength) / 8.0
        assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("n_stages", [1, 2, 3])
def test_analytic_joint_sums_alice_in_the_fixed_order(monkeypatch, n_stages):
    # Alice's u_x.R' summed x, y, z in that order, as the key-by-key oracle sums
    # it in Python floats, whatever the memory layout of the branch states
    # (test_properties checks the layout propagate returns): np.einsum picks
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

    monkeypatch.setattr(montecarlo, "propagate", column_major)
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
