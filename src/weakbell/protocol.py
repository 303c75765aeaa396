"""Measurement schedule for arbitrarily long chains of CHSH violations.

With heavily biased inputs, any number of sequential Bobs can each
violate CHSH with Alice.  Stage n measures along Z (input 0) or
cos(t_n) Z + sin(t_n) X (input 1), with

    t_1 = pi/4,   tan(t_n) = prod_{i<n} F_i,
    F_n = 1 - 2/(1 + sqrt(1 + tan(t_n)^2)),

all stages using frontier pointers, G_n = sqrt(1 - F_n^2).  Writing P_n
for the probability that some Bob before n received input 1, the CHSH
value of Bob_n is bounded below by

    I_n >= sqrt(1 - F_n^2) (2/(1 - F_n) - 4 P_n),

which exceeds 2 precisely when P_n < chi(F_n) with

    chi(F) = (1/(1-F) - 1/sqrt(1-F^2)) / 2.

In the zero-bias limit I_n = 2 sqrt((1+F_n)/(1-F_n)) exactly, and the
violation V_n = I_n - 2 decays super-exponentially, V_{n+1} ~ V_n^3/4.

The sequences collapse triple-exponentially (F_7 < 1e-500), so every
schedule quantity carries a log-domain companion and ratios are formed
in log space; linear fields underflow to 0.0 where double precision
gives out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError

_LOG2 = math.log(2.0)
_LOG4 = math.log(4.0)
# exp() underflows to 0.0 below this; used to skip dead corrections
_EXP_FLOOR = -745.0


def _safe_exp(x: float) -> float:
    return math.exp(x) if x > _EXP_FLOOR else 0.0


def chi(quality_factor: float) -> float:
    """Bias threshold (1/(1-F) - 1/sqrt(1-F^2))/2; chi ~ F/2 for small F.

    Evaluated as F / ((1-F) sqrt(1+F) (sqrt(1+F) + sqrt(1-F))), which is
    the same expression without the cancellation of the difference form.
    """
    F = quality_factor
    if not 0.0 < F < 1.0:
        raise InvalidParameterError(f"quality factor must lie in (0, 1), got {F}")
    sp, sm = math.sqrt(1.0 + F), math.sqrt(1.0 - F)
    return F / ((1.0 - F) * sp * (sp + sm))


def _log_chi(log_quality: float, quality: float) -> float:
    # chi = F / ((1-F) sqrt(1+F) (sqrt(1+F) + sqrt(1-F)))
    return (
        log_quality
        - math.log1p(-quality)
        - 0.5 * math.log1p(quality)
        - math.log(math.sqrt(1.0 + quality) + math.sqrt(1.0 - quality))
    )


@dataclass(frozen=True)
class ScheduleRow:
    """All per-stage quantities, linear and log-domain."""

    stage: int                  # n, 1-based
    angle: float                # t_n in radians (underflows to 0.0 for n >~ 7)
    log_tan_angle: float        # log tan(t_n) = sum_{i<n} log F_i
    quality_factor: float       # F_n
    log_quality: float
    precision: float            # G_n = sqrt(1 - F_n^2)
    log_precision: float
    prior_flip_prob: float      # P_n: some earlier Bob received input 1
    log_prior_flip: float       # -inf when P_n = 0
    chi_threshold: float        # chi(F_n)
    log_chi: float
    chsh_bound: float           # sqrt(1-F^2) (2/(1-F) - 4 P_n)
    log_bound_excess: float     # log(chsh_bound - 2), -inf if no guaranteed violation
    limit_chsh: float           # zero-bias value 2 sqrt((1+F)/(1-F))
    violation: float            # V_n = limit_chsh - 2
    log_violation: float


@dataclass(frozen=True)
class ProtocolSchedule:
    rows: tuple[ScheduleRow, ...]
    biases: tuple[float, ...]

    def row(self, stage: int) -> ScheduleRow:
        if not 1 <= stage <= len(self.rows):
            raise InvalidParameterError(f"stage {stage} outside 1..{len(self.rows)}")
        return self.rows[stage - 1]

    def __len__(self) -> int:
        return len(self.rows)


def _normalize_biases(stage_count: int, biases) -> tuple[float, ...]:
    if isinstance(biases, (int, float)):
        values = [float(biases)] * stage_count
    else:
        values = [float(b) for b in biases]
        if len(values) == stage_count - 1:
            values.append(0.0)  # the last Bob's bias enters no P_n
        if len(values) != stage_count:
            raise InvalidParameterError(
                f"need {stage_count} (or {stage_count - 1}) biases, got {len(values)}"
            )
    for b in values:
        if not 0.0 <= b < 1.0:
            raise InvalidParameterError(f"input bias must lie in [0, 1), got {b}")
    return tuple(values)


def build_schedule(stage_count: int, biases=0.0) -> ProtocolSchedule:
    """Fill the angle/strength recurrence and the bias bookkeeping for N stages."""
    if stage_count < 1:
        raise InvalidParameterError(f"stage count must be >= 1, got {stage_count}")
    bias_values = _normalize_biases(stage_count, biases)

    rows = []
    log_tan = 0.0          # log tan(t_1) = log 1
    log_keep = 0.0         # sum_{i<n} log(1 - r_i)
    for n in range(1, stage_count + 1):
        tan_sq = _safe_exp(2.0 * log_tan)
        root = math.sqrt(1.0 + tan_sq)
        log_quality = 2.0 * log_tan - 2.0 * math.log(1.0 + root)
        quality = _safe_exp(log_quality)
        log_prec = 0.5 * (math.log1p(quality) + math.log1p(-quality))
        prec = math.sqrt((1.0 - quality) * (1.0 + quality))
        angle = math.atan(_safe_exp(log_tan))

        prior_flip = max(0.0, -math.expm1(log_keep))
        log_prior_flip = math.log(prior_flip) if prior_flip > 0.0 else -math.inf

        chi_threshold = (
            chi(quality)
            if quality > 0.0
            else 0.0
        )
        log_chi_value = _log_chi(log_quality, quality)

        # zero-bias limit: I = 2 sqrt((1+F)/(1-F)) = 2 exp(u), V = 2 expm1(u)
        u = 0.5 * (math.log1p(quality) - math.log1p(-quality))
        if quality > 0.0:
            violation = 2.0 * math.expm1(u)
            log_violation = _LOG2 + math.log(math.expm1(u))
        else:
            violation = 0.0
            log_violation = _LOG2 + log_quality
        limit_value = 2.0 + violation

        bound = prec * (2.0 / (1.0 - quality) - 4.0 * prior_flip)
        log_bound_excess = _bound_excess_log(log_violation, log_prior_flip, log_prec)

        rows.append(
            ScheduleRow(
                stage=n,
                angle=angle,
                log_tan_angle=log_tan,
                quality_factor=quality,
                log_quality=log_quality,
                precision=prec,
                log_precision=log_prec,
                prior_flip_prob=prior_flip,
                log_prior_flip=log_prior_flip,
                chi_threshold=chi_threshold,
                log_chi=log_chi_value,
                chsh_bound=bound,
                log_bound_excess=log_bound_excess,
                limit_chsh=limit_value,
                violation=violation,
                log_violation=log_violation,
            )
        )
        log_tan += log_quality
        log_keep += math.log1p(-bias_values[n - 1])
    return ProtocolSchedule(rows=tuple(rows), biases=bias_values)


def _bound_excess_log(log_violation: float, log_prior_flip: float, log_precision: float) -> float:
    """log(bound - 2) where bound - 2 = V_n - 4 P_n G_n; -inf when not positive."""
    if log_prior_flip == -math.inf:
        return log_violation
    penalty = _LOG4 + log_prior_flip + log_precision
    ratio = penalty - log_violation
    if ratio >= 0.0:
        return -math.inf
    return log_violation + math.log1p(-math.exp(ratio))


def feasible_uniform_bias(stage_count: int) -> float:
    """Uniform bias r making every Bob up to stage_count violate CHSH.

    Targets P_N = chi_N / 2 (safety factor two).  Since P_n increases
    and chi(F_n) decreases along the chain, P_N < chi_N implies
    P_n < chi_n for every earlier stage.  For stage counts >= 7 the
    value underflows double precision and 0.0 (the zero-bias limit) is
    returned; the log-domain guarantee still holds.
    """
    if stage_count < 2:
        raise InvalidParameterError(f"need at least 2 stages, got {stage_count}")
    schedule = build_schedule(stage_count)
    log_target = schedule.row(stage_count).log_chi - _LOG2
    target = _safe_exp(log_target)
    if target == 0.0:
        return 0.0
    return -math.expm1(math.log1p(-target) / (stage_count - 1))


SCHEDULE_CSV_HEADER = "n,theta_n,F_n,G_n,P_n,chi_n,bound,limit_I,V_n,log10_V_n"


def schedule_to_csv(schedule: ProtocolSchedule) -> str:
    lines = [SCHEDULE_CSV_HEADER]
    for row in schedule.rows:
        log10_v = row.log_violation / math.log(10.0)
        lines.append(
            f"{row.stage},{row.angle!r},{row.quality_factor!r},{row.precision!r},"
            f"{row.prior_flip_prob!r},{row.chi_threshold!r},{row.chsh_bound!r},"
            f"{row.limit_chsh!r},{row.violation!r},{log10_v!r}"
        )
    return "\n".join(lines) + "\n"
