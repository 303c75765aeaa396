"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (or -s to see the lines).
Every tolerance is pinned here; the runtime budgets are asserted too.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import (
    averaged_states,
    density_from_pauli,
    enumerate_chain_state,
    protocol_config,
    random_direction,
    random_geometry,
    random_stage,
    random_strength,
    sign_and_bound,
    tangent_geometry,
    triple_cell,
    triple_law,
    triple_probability_oracle,
)

from weakbell import (
    BellChainConfig,
    BobStage,
    MeasurementStrength,
    analytic_joint,
    build_schedule,
    chi_square_report,
    double_violation_curve,
    feasible_uniform_bias,
    make_exponential,
    make_gaussian,
    make_optimal,
    make_square,
    make_worst,
    precision,
    quality_factor,
    run_chain,
    strength_of,
    tsirelson_alice,
    tsirelson_bob,
    unbiased_triple_scan,
)
from weakbell.bell import _chsh_values
from weakbell.channel import strength_pair
from weakbell.pointer import _family_strength

SQ2 = math.sqrt(2.0)
OUTCOMES = [(a, b1, b2) for a in (1, -1) for b1 in (1, -1) for b2 in (1, -1)]


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.2f}s exceeded the {self.seconds}s budget"
            )
        return False


def report(number, text):
    print(f"[criterion {number:2d}] PASS  {text}")


def test_c01_optimal_family_saturates_the_trade_off():
    with Budget(5.0) as budget:
        targets = [0.05 * k for k in range(1, 20)]
        worst = 0.0
        for target in targets:
            for profile in ("flat", "smooth_bump"):
                state = make_optimal(target, profile)
                gap = abs(quality_factor(state) - math.sqrt(1.0 - target * target))
                worst = max(worst, gap)
        assert worst < 1e-6
    report(1, f"|F - sqrt(1-G^2)| <= {worst:.2e} over 19 precisions x 2 profiles ({budget.elapsed:.2f}s)")


def test_c02_anchor_point_quality():
    with Budget(1.0) as budget:
        state = make_optimal(0.8)
        value = quality_factor(state)
        assert abs(value - 0.6) < 1e-6
    report(2, f"optimal G=0.8 gives F = {value:.9f} ({budget.elapsed:.2f}s)")


def test_c03_square_pointer_identities():
    with Budget(1.0) as budget:
        for half_width in (0.25, 0.6, 1.0):
            state = make_square(half_width)
            assert abs(quality_factor(state)) < 1e-8
            assert abs(precision(state) - 1.0) < 1e-8
        for half_width in (1.25, 1.5, 1.77, 2.0, 2.6, 3.11):
            state = make_square(half_width)
            assert abs(precision(state) - (1.0 - quality_factor(state))) < 1e-8
        state = make_square(1.5)
        assert abs(quality_factor(state) - 1.0 / 3.0) < 1e-8
        assert abs(precision(state) - 2.0 / 3.0) < 1e-8
    report(3, f"strong below unit width; G = 1-F beyond; (1/3, 2/3) at 1.5 ({budget.elapsed:.2f}s)")


def test_c04_double_violation_curves():
    with Budget(10.0) as budget:
        grid = [0.005 * k for k in range(1, 200)]
        analytic_rows = double_violation_curve("analytic", grid)
        worst = 0.0
        for g, first, second in analytic_rows:
            f = math.sqrt(1.0 - g * g)
            worst = max(worst, abs(first - 2.0 * SQ2 * g), abs(second - SQ2 * (1.0 + f)))
        assert worst < 1e-8
        ((_, first, second),) = double_violation_curve("analytic", [0.8])
        assert abs(first - 2.2627416997969522) < 1e-4 and first > 2.0
        assert abs(second - 2.2627416997969522) < 1e-4 and second > 2.0
        square_rows = double_violation_curve("square", grid)
        assert all(not (i1 > 2.0 and i2 > 2.0) for _, i1, i2 in square_rows)
    report(
        4,
        f"closed forms to {worst:.1e}; both 2.2627 at G=0.8; square never doubles ({budget.elapsed:.2f}s)",
    )


def test_c05_triple_probability_cross_check():
    with Budget(5.0) as budget:
        rng = np.random.default_rng(2024_05)
        worst_gap = 0.0
        worst_norm = 0.0
        worst_signal = 0.0
        for _ in range(200):
            geometry = random_geometry(rng)
            strength = random_strength(rng)
            x, y1, y2 = (int(v) for v in rng.integers(0, 2, size=3))
            # P(a b1 b2 | x y1 y2) for every cell, from one joint a geometry
            law = triple_law(geometry, *strength_pair(strength))
            total = 0.0
            for a, b1, b2 in OUTCOMES:
                direct = float(law[triple_cell(a, b1, b2, x, y1, y2)])
                oracle = triple_probability_oracle(a, b1, b2, x, y1, y2, geometry, strength)
                worst_gap = max(worst_gap, abs(direct - oracle))
                total += direct
            worst_norm = max(worst_norm, abs(total - 1.0))
            for b1, b2 in itertools.product((1, -1), repeat=2):
                bob_m = [sum(float(law[triple_cell(a, b1, b2, x, y1, y2)]) for a in (1, -1)) for x in (0, 1)]
                worst_signal = max(worst_signal, abs(bob_m[0] - bob_m[1]))
            alice_m = [
                sum(float(law[triple_cell(a, b1, b2, x, yy1, yy2)]) for a, b1, b2 in OUTCOMES)
                for yy1, yy2 in itertools.product((0, 1), repeat=2)
            ]
            worst_signal = max(worst_signal, max(alice_m) - min(alice_m))
        assert worst_gap < 1e-10
        assert worst_norm < 1e-12
        assert worst_signal < 1e-12
    report(
        5,
        f"closed form vs propagation <= {worst_gap:.1e}; norm and no-signalling <= 1e-12 ({budget.elapsed:.2f}s)",
    )


def test_c06_unit_circle_tangency():
    with Budget(2.0) as budget:
        for angle in [0.1 * k for k in range(1, 16)]:
            law = triple_law(tangent_geometry(angle), math.sin(angle), math.cos(angle))
            probs = [float(law[triple_cell(a, b1, b2, 0, 0, 0)]) for a, b1, b2 in OUTCOMES]
            assert min(probs) > -1e-10
            assert min(probs) < 1e-10
    report(6, f"on-circle strengths touch a zero-probability outcome at 15 angles ({budget.elapsed:.2f}s)")


def test_c07_sequential_oracle_equivalence():
    with Budget(30.0) as budget:
        rng = np.random.default_rng(2024_07)
        worst = 0.0
        for _ in range(3):
            stages = tuple(random_stage(rng) for _ in range(6))
            cfg = BellChainConfig(random_direction(rng), random_direction(rng), stages=stages)
            for n, state in enumerate(averaged_states(cfg), 1):
                gap = np.max(np.abs(density_from_pauli(state) - enumerate_chain_state(cfg, n)))
                worst = max(worst, float(gap))
        assert worst < 1e-10
    report(7, f"averaged propagation vs branch enumeration <= {worst:.1e} ({budget.elapsed:.2f}s)")


def test_c08_protocol_soundness():
    with Budget(10.0) as budget:
        for stage_count in range(2, 9):
            bias = feasible_uniform_bias(stage_count)
            schedule = build_schedule(stage_count, bias)
            for n in range(1, stage_count + 1):
                row = schedule.row(n)
                # bound > 2 exactly; the excess lives in log domain once
                # it drops below double-precision resolution around 2.0
                assert row.log_bound_excess > -math.inf
                assert row.chsh_bound >= 2.0
                if row.log_bound_excess > math.log(1e-13):
                    assert row.chsh_bound > 2.0
        schedule = build_schedule(4)
        cfg = protocol_config(schedule)
        alice = (cfg.alice_dir0, cfg.alice_dir1)
        worst = 0.0
        for row, stage, state in zip(schedule.rows, cfg.stages, averaged_states(cfg)):
            exact = float(_chsh_values(state, alice, (stage.dir0, stage.dir1), row.precision))
            worst = max(worst, abs(exact - row.limit_chsh))
        assert worst < 1e-8
    report(
        8,
        f"feasible bias keeps every bound above 2 for N<=8; chain check <= {worst:.1e} ({budget.elapsed:.2f}s)",
    )


def test_c09_cubic_decay():
    with Budget(1.0) as budget:
        schedule = build_schedule(12)
        # V_{n+1} / (V_n^3 / 4) for n = 1 .. 10, formed from the log-domain violations
        log_v = [row.log_violation for row in schedule.rows]
        ratios = [math.exp(later - 3.0 * earlier + math.log(4.0)) for earlier, later in zip(log_v[:10], log_v[1:])]
        assert abs(ratios[1] - 1.0) < 0.01   # stage 2 -> 3
        assert abs(ratios[9] - 1.0) < 1e-4   # stage 10 -> 11
    report(
        9,
        f"V ratios: |r(2->3)-1| = {abs(ratios[1]-1):.2e}, |r(10->11)-1| = {abs(ratios[9]-1):.1e} ({budget.elapsed:.2f}s)",
    )


def test_c10_distinguishability_saturation():
    with Budget(1.0) as budget:
        worst = 0.0
        for target in (0.1, 0.3, 0.5, 0.7, 0.9):
            sign, bound = sign_and_bound(strength_of(make_optimal(target)))
            worst = max(worst, abs(sign - bound))
        assert worst < 1e-9
        family = [
            make_square(0.8),
            make_square(2.0),
            make_gaussian(1.5),
            make_exponential(1.0),
            make_optimal(0.6, "smooth_bump"),
            make_worst(0.5),
        ]
        for state in family:
            sign, bound = sign_and_bound(strength_of(state))
            assert sign <= bound + 1e-12
    report(10, f"frontier pointers saturate the bound to {worst:.1e}; others stay below ({budget.elapsed:.2f}s)")


def test_c11_monte_carlo_concordance():
    with Budget(60.0) as budget:
        alice = tsirelson_alice()
        bob = tsirelson_bob()
        weak = _family_strength("optimal", 0.8)
        cfg = BellChainConfig(
            alice[0],
            alice[1],
            stages=(
                BobStage(bob[0], bob[1], weak, bias=0.5),
                BobStage(bob[0], bob[1], MeasurementStrength(0.0, 1.0), bias=0.5),
            ),
        )
        report_mc = run_chain(cfg, 1_000_000, seed=20240817)
        expected = (
            2.0 * SQ2 * weak.precision,
            SQ2 * (1.0 + weak.quality_factor),
        )
        zs = []
        for bob_report, target in zip(report_mc.per_bob, expected):
            assert not bob_report.insufficient
            z = abs(bob_report.chsh - target) / bob_report.chsh_stderr
            zs.append(z)
            assert z < 4.0
        chi2 = chi_square_report(report_mc.outcome_counts, analytic_joint(cfg), report_mc.trials)
        assert chi2.p_value > 0.001
    report(
        11,
        f"1e6 trials: |z| = {zs[0]:.2f}, {zs[1]:.2f}; chi-square p = {chi2.p_value:.3f} ({budget.elapsed:.2f}s)",
    )


def test_c12_no_triple_violation_at_standard_settings():
    with Budget(120.0) as budget:
        grid = [0.01 * k for k in range(1, 100)]
        scan = unbiased_triple_scan(grid, grid)
        assert scan.cells == 99 * 99
        assert scan.max_min_chsh <= 2.0
    report(
        12,
        f"max min(I1,I2,I3) = {scan.max_min_chsh:.4f} at F = {scan.best_quality_factors} ({budget.elapsed:.2f}s)",
    )
