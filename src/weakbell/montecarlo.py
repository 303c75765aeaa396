"""Stochastic simulation of measurement chains with explicit pointer readings.

Each trial samples Alice's strong outcome, then walks the Bob stages.
A reading q is drawn from phi^2, displaced by +1 with probability
tr(pi+ rho) and by -1 otherwise; the state collapses through
K_q = phi(q-1) pi+ + phi(q+1) pi- and the outcome is the sign of q.
A stage must be a pointer.RowStrength, whose pointer scales one profile
by e_n on every interval (2n-1, 2n+1]; run_chain refuses any other
MeasurementStrength before a trial is drawn, and a pointer grid never
gets that far, as bell.BobStage refuses it.  A reading lies in
row n with probability e_n^2 / sum(e^2), and a +-1 shift moves it one
row, so phi(q-1) and phi(q+1) are two adjacent rows' factors times a
profile value the normalized collapse cancels: a stage draws only the
row and reads q > 0 as the shifted row lying above the central one.

A trial's state is an index into a table of the states it can reach:
a stage's collapse depends only on its input state, y and the row the
shifted reading lands in.  Stage 0's table is Alice's four steered
states, column 2x + a_index of a component-first (3, 4) array of real
Bloch vectors r.  Before any trial is drawn, run_chain builds for each
stage the branch thresholds tr(pi+ rho) = (1 + c)/2 of every (state, y),
indexed by key = state*2 + y, and the next stage's table: the
closed-form collapse channel.collapse_bloch of every (state, y, row),
indexed by key*(R + 1) + row for the R + 1 rows a reading shifted by +-1
can land in.  c = d.r is summed d_x r_x + d_y r_y + d_z r_z in that
fixed order (np.einsum sums in an order of its own choosing) and the
same c feeds the collapse, so each entry holds the bits a collapse of
one trial's vector gives.  A trial then takes a stage in a gather of its
threshold, a compare, a searchsorted for its row and an index update.
The last stage builds no next table, as no collapse of it is read, and
a one-row stage (pointer.STRONG_ROWS) takes its row from the branch and
reads no position block.  A stage whose next table would hold more than
MAX_TABLE_STATES vectors ends the walk: from it on, each trial's Bloch
vector is gathered from the stage's table into a (3, count) array and
collapsed per trial.

Alice's strong outcome is steered in closed form from the Pauli
coefficients R of the initial state: P(a=+1|x) = (1 + u_x.R_{1:,0})/2
and Bob's Bloch vector is (R_{0,1:} + a u_x^T T)/(1 + a u_x.R_{1:,0}).
analytic_joint propagates the same coefficients through the conditional
stage maps of bell over the whole (y_k, b_k) branch grid; the tests
check it against a complex branch enumeration.

run_chain tallies each trial once, with np.bincount, into an outcome
table of shape (2,)*(2n+2) whose axes are the booleans a trial draws,
(x, y_1..y_n, a, b_1..b_n): index 1 (true) is input 1 or outcome +1.
The per-Bob reports are its marginals and outcome_counts its non-zero
cells in index order.  analytic_joint keys run in index order with +1
first.  chi_square_report sums its cells in sorted key order, so
neither order reaches its statistic, counts a cell of analytic mass at
most ZERO_MASS as impossible, and reads its p-value from the closed
forms of the chi-square tail at integer degrees of freedom (Abramowitz
& Stegun 26.4.4-26.4.5): a Poisson sum for even dof, erfc plus a
half-integer sum for odd dof.

Randomness comes from a Philox counter-based generator keyed by the
seed.  A run of T trials reads the stream as length-T blocks: block 0
holds Alice's input bits, block 1 her outcome uniforms, and stage k
(from 0) reads its input bits from block 2+3k, its branch uniforms from
block 3+3k and its position uniforms from block 4+3k, which a one-row
stage does not read.  Trial t of block b is double b*T + t of the stream,
so trial t always sees the same counters for a given configuration.
Philox yields four doubles per counter step, and a chunk of trials
[t0, t1) starts each block at counter (b*T + t0) // 4 and drops the
(b*T + t0) % 4 doubles before it (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11).

run_chain samples and tallies chunks of CHUNK_TRIALS trials and sums
their outcome tables, so its memory is bounded by its state tables and a
few chunks (a few MB each) whatever T is.  The chunks run on
min(usable CPUs, chunks) threads; numpy releases the interpreter lock in
the array kernels.  The outcome tables are integer counts, so identical
seed and config reproduce the report bit for bit whatever the chunk size
or the number of threads.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .bell import BellChainConfig, _stage_maps, pauli_coefficients, propagate
from .channel import bloch_dot, collapse_bloch, strength_pair
from .pointer import RowStrength

# trials drawn and tallied together; a chunk's arrays take a few MB, so a
# run's memory does not grow with its trial count
CHUNK_TRIALS = 2**15

# the most states a stage's next table may hold: 2^18 Bloch vectors take
# 6 MB, about what a chunk's arrays take when its trials collapse their own
# vectors (5.5 MB); a stage whose next table would be larger does that.
# The CLI's largest table, at --g 0.002, holds 4 * 2 * 16,122 states
MAX_TABLE_STATES = 2**18

# an analytic cell probability at most this is an impossible outcome: the
# joint of an exactly impossible cell (two strong Bobs reading one direction
# with different outcomes) is rounding noise of either sign, ~1e-17, and a
# cell this unlikely expects 1e-6 counts in cli.MAX_TRIALS = 1e9 trials
ZERO_MASS = 1e-15

# --- reports --------------------------------------------------------------------


def _json_number(value: float) -> float | None:
    """value, or None (JSON null) where it is NaN or infinite."""
    return value if math.isfinite(value) else None


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

    def to_dict(self) -> dict:
        """JSON-ready summary; empty cells and the CHSH they leave undefined are None.

        Each Bob's trial counts per input pair are keyed "xy", as E is.
        """
        return {
            "config_digest": self.config_digest,
            "seed": self.seed,
            "trials": self.trials,
            "per_bob": [
                {
                    "E": {f"{x}{y}": _json_number(e) for (x, y), e in bob.correlations.items()},
                    "chsh": _json_number(bob.chsh),
                    "stderr": _json_number(bob.chsh_stderr),
                    "counts": {f"{x}{y}": n for (x, y), n in bob.counts.items()},
                    "insufficient": bob.insufficient,
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


def _alice_steering(cfg: BellChainConfig) -> tuple[np.ndarray, np.ndarray]:
    """P(a=+1|x), shaped (2,), and Bob's steered Bloch vectors, shaped (3, x, a_index).

    a_index 0 is a = +1.  An outcome of zero probability gets the zero vector.
    """
    pauli = pauli_coefficients(cfg.initial_state)
    u = np.stack([cfg.alice_dir0.vector, cfg.alice_dir1.vector])  # (x, 3)
    signs = np.array([1.0, -1.0])  # a for a_index 0, 1
    weight = 1.0 + np.outer(u @ pauli[1:, 0], signs)  # 1 + a u_x.R_{1:,0} = 2 P(a|x): (x, a_index)
    bloch = pauli[0, 1:] + signs[:, None] * (u @ pauli[1:, 1:])[:, None, :]  # (x, a_index, 3)
    steered = np.divide(bloch, weight[..., None], out=np.zeros_like(bloch), where=weight[..., None] > 0.0)
    return weight[:, 0] / 2.0, np.ascontiguousarray(np.moveaxis(steered, -1, 0))


def _stage_rows(strength) -> tuple[np.ndarray, np.ndarray]:
    """(CDF of the row masses e_n^2, 1.0 from the last non-zero one on; e_n padded with a zero row each end)."""
    if not isinstance(strength, RowStrength):
        raise InvalidParameterError(
            f"Monte Carlo stages need a pointer's interval rows (a RowStrength), got {type(strength).__name__}"
        )
    masses = strength.envelope * strength.envelope
    cdf = np.cumsum(masses)
    cdf /= float(np.sum(masses))
    cdf[np.flatnonzero(masses)[-1] :] = 1.0
    return cdf, np.pad(strength.envelope, 1)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _uniforms(seed: int, trials: int, block: int, start: int, count: int) -> np.ndarray:
    """Doubles start .. start+count-1 of block `block` of a run of `trials` trials.

    Block b is doubles b*trials .. (b+1)*trials - 1 of the Philox stream
    keyed by seed.  Each counter step yields four doubles, so the draw
    starts at counter offset // 4 and drops the offset % 4 doubles before
    the first one it needs.
    """
    offset = block * trials + start
    skip = offset % 4
    rng = np.random.Generator(np.random.Philox(key=seed, counter=offset // 4))
    return rng.random(skip + count)[skip:]


def run_chain(cfg: BellChainConfig, trials: int, seed: int) -> EmpiricalReport:
    """Simulate the full chain and report per-Bob correlators and CHSH values.

    Trials run in chunks of CHUNK_TRIALS on one thread per usable CPU;
    the report does not depend on either.
    """
    return _run_chain(cfg, trials, seed, CHUNK_TRIALS, _usable_cpus())


def _stages(cfg: BellChainConfig) -> list[tuple]:
    """(bias, directions (3, y), row CDF, padded amplitudes, central row) of every stage."""
    stages = []
    for stage in cfg.stages:
        row_cdf, amplitudes = _stage_rows(stage.strength)
        directions = np.array([stage.dir0.vector, stage.dir1.vector]).T
        stages.append((stage.bias, directions, row_cdf, amplitudes, row_cdf.size // 2))
    return stages


def _state_tables(stages: list[tuple], bloch: np.ndarray) -> tuple[list, list]:
    """Branch thresholds of the stages a trial walks by state index, and each walked stage's input states.

    bloch is the (3, S) table of stage 0's input states.  A stage's
    thresholds (1 + c)/2, c = bloch_dot(d_y, r), are indexed by
    key = state*2 + y.  The next stage's table collapses each state r
    through the amplitudes (row, row + 1) of every row = 0..R a shifted
    reading can land in, and is indexed by key*(R + 1) + row.  The walk
    ends at the last stage, which builds no next table, or at a stage
    whose next table would hold more than MAX_TABLE_STATES vectors: that
    stage and the ones after it collapse each trial's own vector.
    """
    thresholds = []
    tables = [bloch]
    for k, (_, directions, row_cdf, amplitudes, _) in enumerate(stages):
        c = bloch_dot(directions[:, None, :], bloch[:, :, None])  # (S, y)
        last = k + 1 == len(stages)
        if not last and c.size * (row_cdf.size + 1) > MAX_TABLE_STATES:
            break
        thresholds.append(((1.0 + c) / 2.0).ravel())
        if last:
            break
        # a (state, y, row) no trial reaches may have no weight: 0/0
        with np.errstate(divide="ignore", invalid="ignore"):
            bloch = collapse_bloch(
                bloch[:, :, None, None],
                directions[:, None, :, None],
                amplitudes[:-1],
                amplitudes[1:],
                np.broadcast_to(c[:, :, None], c.shape + (row_cdf.size + 1,)),
            ).reshape(3, -1)
        tables.append(bloch)
    return thresholds, tables


def _run_chain(cfg: BellChainConfig, trials: int, seed: int, chunk_trials: int, cpus: int) -> EmpiricalReport:
    """run_chain in chunks of chunk_trials on min(cpus, chunks) threads."""
    if trials < 1:
        raise InvalidParameterError(f"trial count must be >= 1, got {trials}")
    # every stage's rows and state tables are built before any thread starts
    stages = _stages(cfg)
    p_plus_by_x, steered = _alice_steering(cfg)
    # column 2x + a_index of the (3, x, a_index) table; a_index 0 is a = +1
    thresholds, tables = _state_tables(stages, steered.reshape(3, 4))
    tabled = len(thresholds)

    def chunk_table(start: int) -> np.ndarray:
        count = min(chunk_trials, trials - start)

        def draw(block: int) -> np.ndarray:
            return _uniforms(seed, trials, block, start, count)

        # inputs and outcomes stay booleans up to the tally: np.take reads one
        # as indices 0 and 1 (in [] it would be a mask), and 2 * x is intp
        x = draw(0) < 0.5
        a_plus = draw(1) < np.take(p_plus_by_x, x)
        state = 2 * x + ~a_plus

        stage_inputs = []
        stage_outcomes = []
        for k, (bias, stage_directions, row_cdf, amplitudes, centre) in enumerate(stages):
            y = draw(2 + 3 * k) < bias
            if k < tabled:
                key = state * 2 + y
                plus = draw(3 + 3 * k) < np.take(thresholds[k], key)  # branch +1 with probability tr(pi+ rho)
            else:
                if k == tabled:
                    bloch = np.take(tables[k], state, axis=1)  # (3, count)
                directions = np.take(stage_directions, y, axis=1)  # (3, count)
                c = bloch_dot(directions, bloch)
                plus = draw(3 + 3 * k) < (1.0 + c) / 2.0
            if row_cdf.size == 1:
                # one row: every reading lies in it, and its sign is the branch's
                row = plus.view(np.int8)
                positive = plus
            else:
                # the sampled reading's row, one row on for the +1 branch: then
                # amplitudes[row] and amplitudes[row + 1] are phi(q-1) and phi(q+1)
                # up to the central profile's factor, and q > 0 exactly when row > centre
                row = np.searchsorted(row_cdf, draw(4 + 3 * k), side="right")
                row += plus
                positive = row > centre
            if k + 1 < len(stages):
                if k < tabled:
                    state = key * (row_cdf.size + 1) + row
                else:
                    # K_q = phi(q-1) pi+ + phi(q+1) pi-
                    bloch = collapse_bloch(bloch, directions, amplitudes[row], amplitudes[row + 1], c)

            stage_inputs.append(y)
            stage_outcomes.append(positive)
        return _outcome_table([x, *stage_inputs, a_plus, *stage_outcomes])

    chunks = -(-trials // chunk_trials)
    workers = min(cpus, chunks)

    def worker_table(worker: int) -> np.ndarray:
        # every workers-th chunk; each worker gets at least one
        return sum(chunk_table(start) for start in range(worker * chunk_trials, trials, workers * chunk_trials))

    # imported here: concurrent.futures would add ~4 ms to the start-up of every command
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        table = sum(pool.map(worker_table, range(workers)))
    per_bob, outcome_counts = _reports(table)
    return EmpiricalReport(
        config_digest=_config_digest(cfg),
        seed=seed,
        trials=trials,
        per_bob=per_bob,
        outcome_counts=outcome_counts,
    )


def _keyed(table: np.ndarray, cells: np.ndarray, outcome_signs: tuple[int, int]) -> dict:
    """{(x, y_1..y_n, a, b_1..b_n): table[cell]} for the index rows cells, in their order.

    outcome_signs[i] is the outcome that index i of an outcome axis stands for.
    """
    n_inputs = table.ndim // 2
    keys = np.concatenate([cells[:, :n_inputs], np.array(outcome_signs)[cells[:, n_inputs:]]], axis=1)
    return dict(zip(map(tuple, keys.tolist()), table[tuple(cells.T)].tolist()))


def _outcome_table(bits: list) -> np.ndarray:
    """Trial counts over the axes of bits, [x, y_1..y_n, a, b_1..b_n], each boolean or 0/1; index 1 is true."""
    # an intp start: a code built on the first bit array's own dtype (int8, say) overflows at 8 axes
    code = np.zeros(len(bits[0]), dtype=np.intp)
    for bit in bits:
        code = code * 2 + bit
    return np.bincount(code, minlength=2 ** len(bits)).reshape((2,) * len(bits))


def _reports(table: np.ndarray) -> tuple[tuple[BobReport, ...], dict]:
    """Per-Bob reports and outcome counts from an outcome table."""
    n_stages = table.ndim // 2 - 1
    per_bob = []
    for k in range(1, n_stages + 1):
        kept = (0, k, n_stages + 1, n_stages + 1 + k)
        marginal = table.sum(axis=tuple(i for i in range(table.ndim) if i not in kept))  # (x, y_k, a, b_k)
        n_xy = marginal.sum(axis=(2, 3)).tolist()
        # sum of a b over each input cell: agreements minus disagreements
        net = (marginal[..., 0, 0] + marginal[..., 1, 1] - marginal[..., 0, 1] - marginal[..., 1, 0]).tolist()
        counts = {(x, y): n_xy[x][y] for x, y in np.ndindex(2, 2)}
        # an integer ratio rounds once, to the same float as the mean of the +-1 products
        e = {(x, y): net[x][y] / n if n else math.nan for (x, y), n in counts.items()}
        insufficient = 0 in counts.values()
        chsh_val, stderr = math.nan, math.nan
        if not insufficient:
            variance = 0.0
            for key, n in counts.items():
                variance += (1.0 - e[key] * e[key]) / n
            chsh_val = e[(0, 0)] + e[(0, 1)] + e[(1, 0)] - e[(1, 1)]
            stderr = math.sqrt(variance)
        per_bob.append(BobReport(e, counts, chsh_val, stderr, insufficient))
    return tuple(per_bob), _keyed(table, np.argwhere(table), (-1, 1))


def analytic_joint(cfg: BellChainConfig) -> dict:
    """Exact joint distribution over (x, y_1..y_n, a, b_1..b_n).

    One propagate call takes the Pauli coefficients of the initial state
    through the conditional stage maps over the whole (y_k, b_k) branch
    grid; strengths come from the stages.  Alice's strong outcome a
    along u_x then has weight (R'_00 + a u_x.R'_{1:,0}) / 2 on each
    branch state R', with u_x.R'_{1:,0} summed x, y, z in that order.
    Shares no sampling code with run_chain, so it serves as the
    chi-square reference.
    """
    n_stages = len(cfg.stages)
    maps = []
    for k, stage in enumerate(cfg.stages):
        quality, prec = strength_pair(stage.strength)
        stage_maps = _stage_maps(quality, prec, (stage.dir0, stage.dir1))
        # stage k's (input, outcome) axes are axes 2k, 2k+1 of the branch grid
        maps.append(stage_maps.reshape((1, 1) * k + (2, 2) + (1, 1) * (n_stages - 1 - k) + (4, 4)))
    branches = propagate(pauli_coefficients(cfg.initial_state), maps)[-1]  # (y1, b1, .., yn, bn, 4, 4)
    u = np.stack([cfg.alice_dir0.vector, cfg.alice_dir1.vector])
    columns = np.moveaxis(branches[..., 1:, 0], -1, 0)[:, None]  # (3, 1, y1, b1, .., yn, bn)
    alice = bloch_dot(u.T.reshape((3, 2) + (1,) * (2 * n_stages)), columns)  # (x, y1, b1, .., yn, bn)
    a_sign = np.array([1.0, -1.0]).reshape((2,) + (1,) * (2 * n_stages))
    weight = branches[..., 0, 0] + a_sign * alice[:, None]  # (x, a, y1, b1, .., yn, bn)
    # to (x, y1, .., yn, a, b1, .., bn)
    weight = weight.transpose(0, *range(2, 2 * n_stages + 2, 2), 1, *range(3, 2 * n_stages + 2, 2))
    # p(x) p(y_1) .. p(y_n) over the (x, y_1..y_n) grid, multiplied in stage order
    p_inputs = math.prod(np.ix_([0.5, 0.5], *([1.0 - stage.bias, stage.bias] for stage in cfg.stages)))
    probs = p_inputs.reshape(p_inputs.shape + (1,) * (n_stages + 1)) * weight / 2.0
    return _keyed(probs, np.argwhere(np.ones(probs.shape, dtype=bool)), (1, -1))


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
            "statistic": _json_number(self.statistic),
            "dof": self.dof,
            "p_value": self.p_value,
            "passed": self.passed,
            "dropped_cells": self.dropped_cells,
        }


def _chi_square_tail(statistic: float, dof: int) -> float:
    """P(chi^2_dof > statistic), the regularized upper gamma Q(dof/2, statistic/2).

    Closed forms for integer dof (Abramowitz & Stegun 26.4.4-26.4.5), with
    a = statistic/2: even dof sum the Poisson terms e^-a a^j / j! for
    j < dof/2; odd dof add erfc(sqrt(a)) to e^-a a^(j-1/2) / Gamma(j+1/2)
    for 1 <= j <= (dof-1)/2.  Each term is formed in log space, so a large
    statistic underflows to 0 rather than overflowing a power, and the
    positive terms are added by math.fsum.
    """
    if statistic == 0.0:
        return 1.0
    if statistic == math.inf:
        return 0.0
    a = 0.5 * statistic
    log_a = math.log(a)
    if dof % 2 == 0:
        terms = [math.exp(j * log_a - a - math.lgamma(j + 1.0)) for j in range(dof // 2)]
    else:
        terms = [math.erfc(math.sqrt(a))]
        terms += [math.exp((j - 0.5) * log_a - a - math.lgamma(j + 0.5)) for j in range(1, dof // 2 + 1)]
    return math.fsum(terms)


def chi_square_report(observed: dict, expected_probs: dict, trials: int) -> ChiSquareReport:
    """Pearson goodness of fit of observed counts against exact cell weights.

    The fit passes when p > 1e-3, p being the chi-square tail at the
    fit's integer dof in closed form (_chi_square_tail).  A cell whose
    expected probability is at most ZERO_MASS is impossible: it is
    dropped when it holds no observations, and an observation in it
    fails the fit outright (p = 0).  Cells are visited in sorted key
    order (keys must be mutually comparable, as the outcome tuples are),
    so the report depends only on the contents of the two dicts, not on
    their insertion order or on hash randomization.
    """
    if trials < 1:
        raise InvalidParameterError(f"trial count must be >= 1, got {trials}")
    statistic = 0.0
    dropped = 0
    used = 0
    for key in sorted(set(observed) | set(expected_probs)):
        count = observed.get(key, 0)
        probability = expected_probs.get(key, 0.0)
        if probability <= ZERO_MASS:
            if count > 0:
                return ChiSquareReport(math.inf, max(1, used - 1), 0.0, False, dropped)
            dropped += 1
            continue
        used += 1
        expected = probability * trials
        statistic += (count - expected) ** 2 / expected
    dof = max(1, used - 1)
    p_value = _chi_square_tail(statistic, dof)
    return ChiSquareReport(statistic, dof, p_value, p_value > 1e-3, dropped)
