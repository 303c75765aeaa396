import math

import mpmath
import numpy as np
import pytest

from conftest import decohere, on_second_qubit

from weakbell import (
    BellChainConfig,
    BobStage,
    InvalidParameterError,
    MeasurementStrength,
    build_schedule,
    chi,
    chsh,
    decay_ratio_sequence,
    feasible_uniform_bias,
    sequential_average_state,
    singlet,
)
from weakbell.bell import protocol_alice, protocol_bob
from weakbell.protocol import SCHEDULE_CSV_HEADER, schedule_to_csv

# Extended-precision recurrence oracle (mpmath, 200 digits), frozen below:
#   F1 = 3 - 2 sqrt(2)             = 0.171572875253809902...
#   F2                             = 7.25294661224192989...e-3
#   F3                             = 3.87138080538705586...e-7
#   F4                             = 5.80227106167291046...e-20
#   chi(F1)                        = 0.0960275080291648612...
#   chi(F2)                        = 3.63981626111054894...e-3
#   I1 = 2 * 2^(1/4)               = 2.37841423000544213...
#   I2                             = 2.01455888209262972...
#   V3                             = 7.74276310953363923...e-7
#   V2 / (V1^3 / 4)                = 1.07469602373315...
#   V3 / (V2^3 / 4)                = 1.00362593836076...
F1 = 0.17157287525380990
F2 = 7.2529466122419259e-3
F3 = 3.8713808053870608e-7
F4 = 5.8022710616729054e-20
CHI1 = 0.09602750802916486
CHI2 = 3.6398162611106103e-3
I1 = 2.3784142300054421
I2 = 2.0145588820926297
V3 = 7.7427631095336358e-7
RATIO_1_2 = 1.0746960237332893
RATIO_2_3 = 1.0036259383608462


def mp_schedule(stage_count, dps=200):
    """Extended-precision recurrence oracle, independent of the implementation."""
    with mpmath.workdps(dps):
        rows = []
        prod = mpmath.mpf(1)
        for _ in range(stage_count):
            tan_sq = prod * prod
            root = mpmath.sqrt(1 + tan_sq)
            quality = tan_sq / (1 + root) ** 2
            u = (mpmath.log1p(quality) - mpmath.log1p(-quality)) / 2
            violation = 2 * mpmath.expm1(u)
            rows.append(
                {
                    "log_tan": mpmath.log(prod),
                    "quality": quality,
                    "violation": violation,
                    "log_violation": mpmath.log(violation),
                }
            )
            prod *= quality
        return rows


def test_schedule_matches_extended_precision_oracle():
    oracle = mp_schedule(12)
    schedule = build_schedule(12)
    for row, expected in zip(schedule.rows, oracle):
        assert row.quality_factor == pytest.approx(float(expected["quality"]), rel=1e-12, abs=1e-305)
        got_log = row.log_violation
        want_log = float(expected["log_violation"])
        assert got_log == pytest.approx(want_log, rel=1e-12)


def test_frozen_anchor_values():
    schedule = build_schedule(4)
    assert schedule.row(1).quality_factor == pytest.approx(F1, rel=1e-14)
    assert schedule.row(2).quality_factor == pytest.approx(F2, rel=1e-12)
    assert schedule.row(3).quality_factor == pytest.approx(F3, rel=1e-12)
    assert schedule.row(4).quality_factor == pytest.approx(F4, rel=1e-12)
    assert schedule.row(1).angle == pytest.approx(math.pi / 4.0, abs=1e-15)


def test_sequences_decrease_and_stay_positive():
    schedule = build_schedule(12)
    angles = [row.angle for row in schedule.rows]
    log_qualities = [row.log_quality for row in schedule.rows]
    log_tans = [row.log_tan_angle for row in schedule.rows]
    for earlier, later in zip(log_qualities, log_qualities[1:]):
        assert later < earlier
    for earlier, later in zip(log_tans[1:], log_tans[2:]):
        assert later < earlier
    assert all(a >= 0.0 for a in angles)
    assert all(np.isfinite(log_qualities))  # positive in log domain even after underflow
    assert schedule.row(12).quality_factor == 0.0  # linear field underflows
    assert schedule.row(12).log_quality < -1e5


def test_tan_angle_equals_quality_product():
    schedule = build_schedule(12)
    running = 0.0
    for row in schedule.rows:
        assert row.log_tan_angle == pytest.approx(running, rel=1e-12, abs=1e-12)
        running += row.log_quality


def test_prior_flip_probability_bookkeeping():
    biases = [0.01, 0.02, 0.0, 0.3, 0.1]
    schedule = build_schedule(5, biases)
    kept = 1.0
    for n in range(1, 6):
        expected = 1.0 - kept
        assert schedule.row(n).prior_flip_prob == pytest.approx(expected, abs=1e-15)
        kept *= 1.0 - biases[n - 1]
    uniform = build_schedule(10, 0.05)
    probs = [row.prior_flip_prob for row in uniform.rows]
    assert all(later > earlier for earlier, later in zip(probs, probs[1:]))
    assert all(p < 1.0 for p in probs)


def test_chi_values_and_shape():
    assert chi(F1) == pytest.approx(CHI1, rel=1e-12)
    assert chi(F2) == pytest.approx(CHI2, rel=1e-12)
    for tiny in (1e-6, 1e-12, 1e-18):
        assert chi(tiny) == pytest.approx(tiny / 2.0, rel=1e-5)
    with pytest.raises(InvalidParameterError):
        chi(0.0)
    with pytest.raises(InvalidParameterError):
        chi(1.0)
    schedule = build_schedule(10)
    log_chis = [row.log_chi for row in schedule.rows]
    assert all(later < earlier for earlier, later in zip(log_chis, log_chis[1:]))


def test_bound_with_zero_bias_equals_limit():
    schedule = build_schedule(6)
    for n in range(1, 7):
        assert schedule.row(n).chsh_bound == pytest.approx(schedule.row(n).limit_chsh, rel=1e-12)
        assert schedule.row(n).limit_chsh == pytest.approx(
            2.0 * math.sqrt((1.0 + schedule.row(n).quality_factor) / (1.0 - schedule.row(n).quality_factor)),
            rel=1e-12,
        )


def test_bound_crosses_two_exactly_at_chi():
    # P_2 = chi(F_2) makes the second Bob's bound exactly 2
    schedule_probe = build_schedule(2)
    bias = schedule_probe.row(2).chi_threshold
    schedule = build_schedule(2, [bias, 0.0])
    assert schedule.row(2).prior_flip_prob == pytest.approx(bias, rel=1e-12)
    assert schedule.row(2).chsh_bound == pytest.approx(2.0, abs=1e-9)
    heavy = build_schedule(2, [0.5, 0.0])
    assert heavy.row(2).chsh_bound < 2.0
    assert heavy.row(2).log_bound_excess == -math.inf


def test_limit_values():
    schedule = build_schedule(3)
    assert schedule.row(1).limit_chsh == pytest.approx(I1, rel=1e-12)
    assert schedule.row(1).violation == pytest.approx(I1 - 2.0, rel=1e-12)
    assert schedule.row(2).limit_chsh == pytest.approx(I2, rel=1e-12)
    assert schedule.row(3).violation == pytest.approx(V3, rel=1e-12)
    assert schedule.row(3).violation / (schedule.row(2).violation ** 3 / 4.0) == pytest.approx(
        RATIO_2_3, rel=1e-9
    )


def test_feasible_uniform_bias_guarantees_everyone_violates():
    previous = None
    for stage_count in range(2, 9):
        bias = feasible_uniform_bias(stage_count)
        assert 0.0 <= bias < 1.0
        schedule = build_schedule(stage_count, bias)
        final = schedule.row(stage_count)
        # target was chi_N / 2, so the log-domain margin must be kept
        if final.prior_flip_prob > 0.0:
            assert final.log_prior_flip <= final.log_chi - math.log(2.0) + 1e-9
        for n in range(1, stage_count + 1):
            row = schedule.row(n)
            assert row.log_bound_excess > -math.inf
            assert row.chsh_bound >= 2.0
            # the linear bound saturates at 2.0 once the excess drops
            # below one ulp; above that it must be strictly greater
            if row.log_bound_excess > math.log(1e-13):
                assert row.chsh_bound > 2.0
        if previous is not None and bias > 0.0:
            assert bias < previous
        if bias > 0.0:
            previous = bias
    with pytest.raises(InvalidParameterError):
        feasible_uniform_bias(1)


def test_decay_ratios_in_log_domain():
    schedule = build_schedule(12)
    ratios = decay_ratio_sequence(schedule, 10)
    assert ratios[0] == pytest.approx(RATIO_1_2, rel=1e-9)
    assert ratios[1] == pytest.approx(RATIO_2_3, rel=1e-9)
    assert abs(ratios[1] - 1.0) < 0.01
    assert abs(ratios[9] - 1.0) < 1e-4
    # |ratio - 1| shrinks monotonically down to the float noise floor
    # (log V_n grows to ~1e5, so cancellations leave ~1e-10 of wobble)
    gaps = [abs(r - 1.0) for r in ratios[1:]]
    for earlier, later in zip(gaps, gaps[1:]):
        assert later <= earlier + 1e-10
    with pytest.raises(InvalidParameterError):
        decay_ratio_sequence(schedule, 12)


def test_zero_input_chain_state_collapses_to_two_terms():
    # with every input 0 the chain state is tan(t_n) rho + (1 - tan(t_n)) D_Z(rho)
    schedule = build_schedule(4)
    alice = protocol_alice()
    stages = tuple(
        BobStage(
            *protocol_bob(schedule.row(k).angle),
            MeasurementStrength(schedule.row(k).quality_factor, schedule.row(k).precision),
            bias=0.0,
        )
        for k in range(1, 5)
    )
    cfg = BellChainConfig(alice[0], alice[1], stages=stages)
    decohered = on_second_qubit(lambda r: decohere(r, protocol_bob(0.0)[0]), singlet())
    for n in range(1, 6):
        tan_angle = math.exp(schedule.row(n).log_tan_angle) if n <= 4 else None
        state = sequential_average_state(cfg, n)
        if n <= 4:
            expected = tan_angle * singlet() + (1.0 - tan_angle) * decohered
            np.testing.assert_allclose(state, expected, atol=1e-10)


def test_limit_chsh_cross_checks_against_exact_chain():
    schedule = build_schedule(4)
    alice = protocol_alice()
    stages = tuple(
        BobStage(
            *protocol_bob(schedule.row(k).angle),
            MeasurementStrength(schedule.row(k).quality_factor, schedule.row(k).precision),
            bias=0.0,
        )
        for k in range(1, 5)
    )
    cfg = BellChainConfig(alice[0], alice[1], stages=stages)
    for n in range(1, 5):
        row = schedule.row(n)
        state = sequential_average_state(cfg, n)
        exact = chsh(state, alice, protocol_bob(row.angle), row.precision)
        assert exact == pytest.approx(schedule.row(n).limit_chsh, abs=1e-8)


def test_schedule_validation_and_csv():
    with pytest.raises(InvalidParameterError):
        build_schedule(0)
    with pytest.raises(InvalidParameterError):
        build_schedule(3, 1.0)
    with pytest.raises(InvalidParameterError):
        build_schedule(3, [-0.1, 0.0, 0.0])
    with pytest.raises(InvalidParameterError):
        build_schedule(3, [0.1])
    build_schedule(3, [0.1, 0.2])  # N-1 biases are accepted
    text = schedule_to_csv(build_schedule(8))
    lines = text.splitlines()
    assert lines[0] == SCHEDULE_CSV_HEADER
    assert len(lines) == 9
    log10_column = [float(line.split(",")[-1]) for line in lines[1:]]
    # super-exponential decay: each magnitude at least doubles in log10
    for earlier, later in zip(log10_column[1:], log10_column[2:]):
        assert later < 2.0 * earlier
