import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    kraus_at_reading,
    oracle_bob_reports,
    oracle_count_outcomes,
    oracle_run_chain,
    outcome_probabilities,
    projectors,
    random_density,
    random_direction,
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
    make_optimal,
    make_square,
    make_worst,
    run_chain,
    triple_probability,
    tsirelson_alice,
    tsirelson_bob,
)
from weakbell.bell import TripleGeometry
from weakbell.channel import DIR_X, DIR_Z
from weakbell.montecarlo import (
    CHUNK_TRIALS,
    GUIDE_SIZE,
    _guide_table,
    _outcome_table,
    _reading_nodes,
    _reports,
    _run_chain,
    _uniforms,
)


def double_config(target_precision=0.8):
    alice = tsirelson_alice()
    bob = tsirelson_bob()
    return BellChainConfig(
        alice[0],
        alice[1],
        stages=(
            BobStage(bob[0], bob[1], make_optimal(target_precision), bias=0.5),
            BobStage(bob[0], bob[1], make_square(1.0), bias=0.5),
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
    positions, cdf = pointer.positions, pointer.reading_cdf
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
    positions, cdf = pointer.positions, pointer.reading_cdf
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
    idx = np.searchsorted(pointer.reading_cdf, rng.random(trials), side="right")
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
    # readings are pointer nodes displaced by +/-1: none is 0, so sign(q) is never tied
    for stage in cfg.stages:
        for shift in (1.0, -1.0):
            assert np.all(stage.strength.positions + shift != 0.0)
    # every trial is digitized to one outcome +/-1 per Bob
    assert sum(report.outcome_counts.values()) == 500
    for key in report.outcome_counts:
        assert all(b in (-1, 1) for b in key[-len(cfg.stages) :])


def test_run_chain_strong_aligned_bob_anticorrelates_exactly():
    # a strong Bob measuring along Alice's own directions sees b = -a on the singlet
    cfg = BellChainConfig(
        DIR_Z, DIR_X, stages=(BobStage(DIR_Z, DIR_X, make_square(1.0), bias=0.5),)
    )
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
        alice[0], alice[1], stages=(BobStage(bob[0], bob[1], make_square(1.0), bias=0.5),)
    )
    report = run_chain(cfg, 200_000, seed=11)
    assert abs(report.per_bob[0].chsh - 2.0 * math.sqrt(2.0)) < 4.0 * report.per_bob[0].chsh_stderr


def test_run_chain_flags_missing_input_combinations():
    alice = tsirelson_alice()
    bob = tsirelson_bob()
    cfg = BellChainConfig(
        alice[0], alice[1], stages=(BobStage(bob[0], bob[1], make_square(1.0), bias=0.0),)
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


@functools.cache
def guided_pointers() -> dict:
    """Pointers whose CDFs stress the guide table: bucket edges, flat runs and zero-mass tails."""
    return {
        "optimal-0.8": make_optimal(0.8),
        "optimal-0.05": make_optimal(0.05),
        "worst-0.5": make_worst(0.5),
        "square-1": make_square(1.0),
        "square-3": make_square(3.0),
    }


def chain_config(n_stages: int, later: tuple = ()) -> BellChainConfig:
    # a weak optimal Bob first, then the later pointers (strong square ones
    # by default); the last Bob biased
    alice = tsirelson_alice()
    bob = tsirelson_bob()
    strengths = [make_optimal(0.8), *(later or (make_square(1.0),) * 2)][:n_stages]
    biases = [0.5] * (n_stages - 1) + [0.3]
    return BellChainConfig(
        alice[0],
        alice[1],
        stages=tuple(BobStage(bob[0], bob[1], s, bias=b) for s, b in zip(strengths, biases)),
    )


def assert_matches_the_whole_run(cfg, trials: int, seed: int, chunk: int) -> None:
    # the report must not depend on the chunk size or the number of threads
    oracle = oracle_run_chain(cfg, trials, seed)
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
    assert_matches_the_whole_run(chain_config(n_stages), trials, 20240817 + trials, chunk)


@pytest.mark.parametrize("n_stages", [2, 3])
@pytest.mark.parametrize("chunk", [37, CHUNK_TRIALS])
@pytest.mark.parametrize("whole_chunks, extra", [(0, 3), (1, 1), (2, 5)])
def test_chunked_run_chain_matches_the_whole_run_on_sparse_pointers(n_stages, chunk, whole_chunks, extra):
    # a worst-case pointer (every other interval row zeroed, so its CDF has flat
    # runs), then a G = 0.05 frontier pointer (662,528 nodes; most of its guide
    # buckets hold a CDF value and fall back to the full search)
    cfg = chain_config(n_stages, (guided_pointers()["worst-0.5"], guided_pointers()["optimal-0.05"]))
    trials = whole_chunks * chunk + extra
    assert_matches_the_whole_run(cfg, trials, 1302 + trials, chunk)


def test_run_chain_reads_zero_beyond_both_grid_edges():
    # a flat pointer filling its grid (-2, 2): every reading displaced
    # outwards looks up phi up to two units past an edge
    cells = 64
    edge_to_edge = PointerState(np.full(4 * cells, 0.5), 1.0 / cells)
    alice = tsirelson_alice()
    bob = tsirelson_bob()
    for n_stages in (1, 2):
        stages = tuple(BobStage(bob[0], bob[1], edge_to_edge) for _ in range(n_stages))
        assert_matches_the_whole_run(BellChainConfig(alice[0], alice[1], stages=stages), 5_000, 11, 1_000)


@functools.cache
def guided_search(name: str) -> tuple[np.ndarray, np.ndarray]:
    """The reading CDF of a guided pointer and its guide table."""
    cdf = guided_pointers()[name].reading_cdf
    return cdf, _guide_table(cdf)


@pytest.mark.parametrize("name", ["optimal-0.8", "optimal-0.05", "worst-0.5", "square-1", "square-3"])
def test_guide_search_matches_searchsorted(name):
    cdf, guide = guided_search(name)
    assert guide.dtype == np.int32 and guide.shape == (GUIDE_SIZE,)
    # both kinds of bucket occur, so both paths of the search run
    assert 0 < np.count_nonzero(guide < 0) < GUIDE_SIZE
    edges = np.arange(GUIDE_SIZE) / GUIDE_SIZE
    inner = cdf[cdf < 1.0]
    u = np.concatenate(
        [
            [0.0, np.nextafter(1.0, 0.0)],
            edges,
            np.nextafter(edges, 0.0),
            inner,
            np.nextafter(inner, 0.0),
            np.nextafter(inner, 1.0),
        ]
    )
    u = u[(u >= 0.0) & (u < 1.0)]
    np.testing.assert_array_equal(_reading_nodes(cdf, guide, u), np.searchsorted(cdf, u, side="right"))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_guide_search_matches_searchsorted_anywhere_in_the_unit_interval(u):
    for name in guided_pointers():
        cdf, guide = guided_search(name)
        assert _reading_nodes(cdf, guide, np.array([u])).tolist() == [np.searchsorted(cdf, u, side="right")]


@pytest.mark.parametrize(
    "trials, block, start, count", [(10, 0, 1, 9), (10, 1, 3, 5), (7, 2, 0, 7), (13, 3, 4, 9), (5, 4, 2, 3)]
)
def test_block_addressing_matches_one_sequential_stream(trials, block, start, count):
    offset = block * trials + start
    assert offset % 4 != 0
    stream = np.random.Generator(np.random.Philox(key=1302)).random(5 * trials)
    np.testing.assert_array_equal(_uniforms(1302, trials, block, start, count), stream[offset : offset + count])


def test_run_chain_requires_pointer_backed_stages():
    alice = tsirelson_alice()
    bob = tsirelson_bob()
    cfg = BellChainConfig(
        alice[0],
        alice[1],
        stages=(BobStage(bob[0], bob[1], MeasurementStrength(0.6, 0.8), bias=0.5),),
    )
    with pytest.raises(InvalidParameterError):
        run_chain(cfg, 10, seed=0)
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
    assert chi2.dof == 63


def test_chi_square_cell_handling():
    observed = {"a": 50, "b": 50}
    expected = {"a": 0.5, "b": 0.5, "never": 0.0}
    report = chi_square_report(observed, expected, 100)
    assert report.passed and report.dropped_cells == 1
    impossible = chi_square_report({"a": 99, "never": 1}, expected, 100)
    assert not impossible.passed and impossible.p_value == 0.0
    with pytest.raises(InvalidParameterError):
        chi_square_report(observed, expected, 0)


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
