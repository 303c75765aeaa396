"""Stochastic simulation of measurement chains with explicit pointer readings.

Each trial samples Alice's strong outcome, then walks the Bob stages:
the pointer reading q is drawn from the exact discrete density

    p(q) = tr(pi+ rho) phi(q-1)^2 + tr(pi- rho) phi(q+1)^2

by inverse CDF on the pointer grid (the CDF is exact there and cached
on the pointer), the state collapses through K_q = phi(q-1) pi+ +
phi(q+1) pi-, and the outcome is the sign of q (the half-offset grid
makes q = 0 impossible).  run_chain carries each trial's state as a real
Bloch vector r, so tr(pi+ rho) = (1 + d.r)/2 and the collapse is the
closed-form update channel.collapse_bloch.  analytic_joint stays on
complex density matrices, independent of the sampling path.

Randomness comes from a Philox counter-based generator keyed by the
seed.  run_chain consumes the stream in a fixed documented order
(Alice's input bits, Alice's outcome uniforms, then per stage: input
bits, branch uniforms, position uniforms), each as one length-T block,
so trial t always sees the same counters for a given configuration:
identical seed and config reproduce trials bit for bit.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc

from .errors import InvalidParameterError, InvalidStateError
from .bell import BellChainConfig, BobStage
from .channel import PAULI_XYZ, as_density, collapse_bloch, projectors, strength_pair, weak_conditional
from .pointer import PointerState

# --- reading distribution ----------------------------------------------------


def reading_distribution(pointer: PointerState) -> tuple[np.ndarray, np.ndarray]:
    """(node positions, exact discrete CDF) of the undisplaced pointer density."""
    return pointer.positions, pointer.reading_cdf


def sample_reading(rho, pointer: PointerState, direction, rng) -> tuple[float, np.ndarray]:
    """Draw one pointer reading and return (q, collapsed unnormalized state).

    The reading is a node of the pointer grid displaced by +1 or -1; the
    collapsed state is K_q rho K_q with trace equal to the reading
    density at q times the grid spacing, up to normalization of rho.
    """
    rho = as_density(rho, 2)
    if not np.any(pointer.samples):
        raise InvalidStateError("degenerate pointer: all amplitudes vanish")
    pp, pm = projectors(direction)
    p_plus = float(np.trace(pp @ rho).real)
    shift = 1.0 if rng.random() < p_plus else -1.0
    idx = int(np.searchsorted(pointer.reading_cdf, rng.random(), side="right"))
    # equals pointer.positions[idx] without building the positions array
    reading = float(pointer.grid_origin + idx * pointer.grid_spacing + shift)
    amp_minus = pointer.value_at(reading - 1.0)
    amp_plus = pointer.value_at(reading + 1.0)
    kraus = amp_minus * pp + amp_plus * pm
    return reading, kraus @ rho @ kraus


# --- trial records and reports ----------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    """One trial: inputs (x, y_1..y_n), readings q_1..q_n, outcomes (a, b_1..b_n)."""

    seed: int
    inputs: tuple[int, ...]
    readings: tuple[float, ...]
    outcomes: tuple[int, ...]


@dataclass(frozen=True)
class BobReport:
    """Empirical correlators of Alice and one Bob."""

    correlations: dict
    counts: dict
    chsh: float
    chsh_stderr: float
    insufficient: bool


@dataclass(frozen=True)
class EmpiricalReport:
    config_digest: str
    seed: int
    trials: int
    per_bob: tuple[BobReport, ...]
    outcome_counts: dict
    records: tuple[TrialRecord, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "config_digest": self.config_digest,
            "seed": self.seed,
            "trials": self.trials,
            "per_bob": [
                {
                    "E": {f"{x}{y}": bob.correlations[(x, y)] for x, y in bob.correlations},
                    "chsh": bob.chsh,
                    "stderr": bob.chsh_stderr,
                }
                for bob in self.per_bob
            ],
        }


def _config_digest(cfg: BellChainConfig) -> str:
    parts = {
        "alice": [list(cfg.alice_dir0.vector), list(cfg.alice_dir1.vector)],
        "stages": [
            {
                "dir0": list(stage.dir0.vector),
                "dir1": list(stage.dir1.vector),
                "strength": list(strength_pair(stage.strength)),
                "bias": stage.bias,
            }
            for stage in cfg.stages
        ],
        "initial_state": [[c.real, c.imag] for c in np.asarray(cfg.initial_state).ravel()],
    }
    payload = json.dumps(parts, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def _alice_tables(cfg: BellChainConfig) -> tuple[np.ndarray, np.ndarray]:
    """P(a=+1|x) and the normalized steered 2x2 states for (x, a) combos."""
    rho0 = np.asarray(cfg.initial_state, dtype=complex)
    p_plus = np.zeros(2)
    steered = np.zeros((2, 2, 2, 2), dtype=complex)  # [x, a_index] with a_index 0 -> +1
    eye2 = np.eye(2, dtype=complex)
    for x, direction in enumerate((cfg.alice_dir0, cfg.alice_dir1)):
        pp, pm = projectors(direction)
        for a_index, projector in enumerate((pp, pm)):
            big = np.kron(projector, eye2)
            collapsed = big @ rho0 @ big
            reduced = collapsed[0:2, 0:2] + collapsed[2:4, 2:4]
            weight = float(np.trace(reduced).real)
            if a_index == 0:
                p_plus[x] = weight
            if weight > 0.0:
                steered[x, a_index] = reduced / weight
    return p_plus, steered


def _stage_pointer(stage: BobStage) -> PointerState:
    if not isinstance(stage.strength, PointerState):
        raise InvalidParameterError(
            "Monte Carlo stages need pointer-backed strengths (readings require a wavefunction)"
        )
    return stage.strength


def run_chain(
    cfg: BellChainConfig,
    trials: int,
    seed: int,
    keep_records: bool = False,
) -> EmpiricalReport:
    """Simulate the full chain and report per-Bob correlators and CHSH values.

    All trials are vectorized; keep_records materializes per-trial
    TrialRecord tuples and is intended for small runs.
    """
    if trials < 1:
        raise InvalidParameterError(f"trial count must be >= 1, got {trials}")
    pointers = [_stage_pointer(stage) for stage in cfg.stages]
    rng = np.random.Generator(np.random.Philox(key=seed))

    x_bits = (rng.random(trials) < 0.5).astype(np.int8)
    alice_uniform = rng.random(trials)
    p_plus_by_x, steered = _alice_tables(cfg)
    a = np.where(alice_uniform < p_plus_by_x[x_bits], 1, -1).astype(np.int8)
    a_index = ((1 - a) // 2).astype(np.int8)
    # Bloch vectors tr(rho sigma_k) of the steered states, gathered per trial: (T, 3)
    bloch = np.einsum("xaij,kji->xak", steered, PAULI_XYZ).real[x_bits, a_index]

    stage_inputs = []
    stage_readings = []
    stage_outcomes = []
    for stage, pointer in zip(cfg.stages, pointers):
        y = (rng.random(trials) < stage.bias).astype(np.int8)
        branch_uniform = rng.random(trials)
        position_uniform = rng.random(trials)

        cells = round(1.0 / pointer.grid_spacing)
        positions, cdf = reading_distribution(pointer)
        samples = pointer.samples

        directions = np.stack([stage.dir0.vector, stage.dir1.vector])[y]  # (T, 3)
        p_plus = (1.0 + np.einsum("ti,ti->t", directions, bloch)) / 2.0
        shifts = np.where(branch_uniform < p_plus, 1, -1).astype(np.int64)
        idx = np.searchsorted(cdf, position_uniform, side="right")
        readings = positions[idx] + shifts

        # phi(q -/+ 1) as integer index gathers on the pointer grid
        idx_minus = idx + (shifts - 1) * cells
        idx_plus = idx + (shifts + 1) * cells
        amp_minus = np.where(
            (idx_minus >= 0) & (idx_minus < samples.size), samples[np.clip(idx_minus, 0, samples.size - 1)], 0.0
        )
        amp_plus = np.where(
            (idx_plus >= 0) & (idx_plus < samples.size), samples[np.clip(idx_plus, 0, samples.size - 1)], 0.0
        )
        # K_q = phi(q-1) pi+ + phi(q+1) pi-
        bloch = collapse_bloch(bloch, directions, amp_minus, amp_plus)

        stage_inputs.append(y)
        stage_readings.append(readings)
        stage_outcomes.append(np.where(readings > 0.0, 1, -1).astype(np.int8))

    per_bob = []
    for y, b in zip(stage_inputs, stage_outcomes):
        correlations = {}
        counts = {}
        variance = 0.0
        insufficient = False
        for x_val in (0, 1):
            for y_val in (0, 1):
                mask = (x_bits == x_val) & (y == y_val)
                n_cell = int(np.sum(mask))
                counts[(x_val, y_val)] = n_cell
                if n_cell == 0:
                    correlations[(x_val, y_val)] = math.nan
                    insufficient = True
                    continue
                e_val = float(np.mean(a[mask] * b[mask]))
                correlations[(x_val, y_val)] = e_val
                variance += (1.0 - e_val * e_val) / n_cell
        if insufficient:
            chsh_val, stderr = math.nan, math.nan
        else:
            e = correlations
            chsh_val = e[(0, 0)] + e[(0, 1)] + e[(1, 0)] - e[(1, 1)]
            stderr = math.sqrt(variance)
        per_bob.append(
            BobReport(
                correlations=correlations,
                counts=counts,
                chsh=chsh_val,
                chsh_stderr=stderr,
                insufficient=insufficient,
            )
        )

    outcome_counts = _count_outcomes(x_bits, stage_inputs, a, stage_outcomes)

    records = None
    if keep_records:
        records = tuple(
            TrialRecord(
                seed=seed,
                inputs=(int(x_bits[t]), *(int(y[t]) for y in stage_inputs)),
                readings=tuple(float(r[t]) for r in stage_readings),
                outcomes=(int(a[t]), *(int(b[t]) for b in stage_outcomes)),
            )
            for t in range(trials)
        )

    return EmpiricalReport(
        config_digest=_config_digest(cfg),
        seed=seed,
        trials=trials,
        per_bob=tuple(per_bob),
        outcome_counts=outcome_counts,
        records=records,
    )


def _count_outcomes(x_bits, stage_inputs, a, stage_outcomes) -> dict:
    """Counts keyed by (x, y_1..y_n, a, b_1..b_n)."""
    n_stages = len(stage_inputs)
    code = x_bits.astype(np.int64)
    for y in stage_inputs:
        code = code * 2 + y
    code = code * 2 + ((1 + a) // 2)
    for b in stage_outcomes:
        code = code * 2 + ((1 + b) // 2)
    values, counts = np.unique(code, return_counts=True)
    out = {}
    for value, count in zip(values.tolist(), counts.tolist()):
        bits = []
        for _ in range(2 * n_stages + 2):
            bits.append(value & 1)
            value >>= 1
        bits.reverse()
        x = bits[0]
        ys = tuple(bits[1 : 1 + n_stages])
        a_val = 2 * bits[1 + n_stages] - 1
        bs = tuple(2 * bit - 1 for bit in bits[2 + n_stages :])
        out[(x, *ys, a_val, *bs)] = count
    return out


def analytic_joint(cfg: BellChainConfig) -> dict:
    """Exact joint distribution over (x, y_1..y_n, a, b_1..b_n).

    Propagates conditional unnormalized states through the chain with
    the conditional weak channel; strengths come from the stages
    (pointer-backed stages are measured by quadrature).  Independent of
    the sampling path, so it doubles as the chi-square reference.
    """
    n_stages = len(cfg.stages)
    p_plus_by_x, steered = _alice_tables(cfg)
    out = {}
    strengths = [stage.resolved_strength() for stage in cfg.stages]
    for x in (0, 1):
        p_x = 0.5
        for ys in itertools.product((0, 1), repeat=n_stages):
            p_inputs = p_x
            for stage, y in zip(cfg.stages, ys):
                p_inputs *= stage.bias if y == 1 else 1.0 - stage.bias
            for a_val in (1, -1):
                p_a = p_plus_by_x[x] if a_val == 1 else 1.0 - p_plus_by_x[x]
                rho = steered[x, (1 - a_val) // 2]
                for bs in itertools.product((1, -1), repeat=n_stages):
                    state = np.array(rho)
                    for stage, strength, y, b in zip(cfg.stages, strengths, ys, bs):
                        direction = stage.dir1 if y == 1 else stage.dir0
                        state = weak_conditional(state, direction, strength, b)
                    prob = p_inputs * p_a * float(np.trace(state).real)
                    out[(x, *ys, a_val, *bs)] = prob
    return out


# --- chi-square comparison ----------------------------------------------------


@dataclass(frozen=True)
class ChiSquareReport:
    statistic: float
    dof: int
    p_value: float
    passed: bool
    dropped_cells: int

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "dof": self.dof,
            "p_value": self.p_value,
            "passed": self.passed,
            "dropped_cells": self.dropped_cells,
        }


def chi_square_report(
    observed: dict,
    expected_probs: dict,
    trials: int,
    significance: float = 1e-3,
) -> ChiSquareReport:
    """Pearson goodness of fit of observed counts against exact cell weights.

    Cells with zero expected mass and zero observations are dropped; an
    observation in a zero-mass cell fails outright (p = 0).
    """
    if trials < 1:
        raise InvalidParameterError(f"trial count must be >= 1, got {trials}")
    keys = set(observed) | set(expected_probs)
    statistic = 0.0
    dropped = 0
    used = 0
    for key in keys:
        count = observed.get(key, 0)
        expected = expected_probs.get(key, 0.0) * trials
        if expected <= 0.0:
            if count > 0:
                return ChiSquareReport(math.inf, max(1, used - 1), 0.0, False, dropped)
            dropped += 1
            continue
        used += 1
        statistic += (count - expected) ** 2 / expected
    dof = max(1, used - 1)
    p_value = float(gammaincc(dof / 2.0, statistic / 2.0))
    return ChiSquareReport(statistic, dof, p_value, p_value > significance, dropped)
