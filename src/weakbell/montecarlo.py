"""Stochastic simulation of measurement chains with explicit pointer readings.

Each trial samples Alice's strong outcome, then walks the Bob stages:
the pointer reading q is drawn from the exact discrete density

    p(q) = tr(pi+ rho) phi(q-1)^2 + tr(pi- rho) phi(q+1)^2

by inverse CDF on the pointer grid (the CDF is exact there and cached
on the pointer), the state collapses through K_q = phi(q-1) pi+ +
phi(q+1) pi-, and the outcome is the sign of q (the half-offset grid
makes q = 0 impossible, and q > 0 exactly when its node index is at
least half the node count, so the sign is read from the index).  The
inverse CDF is searched through a guide table of GUIDE_SIZE buckets
per stage (Chen & Asau, AIIE Trans. 6, 163 (1974)): a bucket that holds
no CDF value stores the one search result of all its uniforms, and only
uniforms in the other buckets are searched in full, so every reading is
the one np.searchsorted(cdf, u, side="right") would give.

run_chain carries each trial's state as a real Bloch vector r, held
component-first as a (3, count) array so every step runs over the
trials, not over the three components.  tr(pi+ rho) = (1 + c)/2 with
c = d.r summed d_x r_x + d_y r_y + d_z r_z in that fixed order (np.einsum
sums in an order of its own choosing), and the same c feeds the
closed-form update channel.collapse_bloch.  Alice's strong outcome is
steered in closed form from the Pauli coefficients R of the initial
state: P(a=+1|x) = (1 + u_x.R_{1:,0})/2 and Bob's Bloch vector is
(R_{0,1:} + a u_x^T T)/(1 + a u_x.R_{1:,0}).  analytic_joint propagates
the same coefficients through the conditional stage maps of bell over
the whole (y_k, b_k) branch grid; the tests check it against a complex
branch enumeration.

run_chain tallies each trial once, with np.bincount, into an outcome
table of shape (2,)*(2n+2): axes (x, y_1..y_n, a, b_1..b_n),
outcome index 1 for +1.  The per-Bob reports are its marginals and
outcome_counts its non-zero cells in index order.  analytic_joint keys
run in index order with +1 first.  chi_square_report sums its cells in
sorted key order, so neither order reaches its statistic.

Randomness comes from a Philox counter-based generator keyed by the
seed.  A run of T trials reads the stream as length-T blocks: block 0
holds Alice's input bits, block 1 her outcome uniforms, and stage k
(from 0) reads its input bits from block 2+3k, its branch uniforms from
block 3+3k and its position uniforms from block 4+3k.  Trial t of block
b is double b*T + t of the stream, so trial t always sees the same
counters for a given configuration.  Philox yields four doubles per
counter step, and a chunk of trials [t0, t1) starts each block at
counter (b*T + t0) // 4 and drops the (b*T + t0) % 4 doubles before it
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).

run_chain samples, collapses and tallies chunks of CHUNK_TRIALS trials
and sums their outcome tables, so its memory is bounded by a few chunks
(a few MB) whatever T is.  The chunks run on min(usable CPUs, chunks)
threads; numpy releases the interpreter lock in the array kernels.  The
tables are integer counts, so identical seed and config reproduce the
report bit for bit whatever the chunk size or the number of threads.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .bell import BellChainConfig, BobStage, _stage_maps, pauli_coefficients, propagate
from .channel import bloch_dot, collapse_bloch, strength_pair
from .pointer import PointerState

# trials drawn, collapsed and tallied together; a chunk's arrays take a
# few MB, so a run's memory does not grow with its trial count
CHUNK_TRIALS = 2**15

# buckets of a stage's guide table; a power of two, so u * GUIDE_SIZE is exact
GUIDE_SIZE = 2**16

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


def _stage_pointer(stage: BobStage) -> PointerState:
    if not isinstance(stage.strength, PointerState):
        raise InvalidParameterError(
            "Monte Carlo stages need pointer-backed strengths (readings require a wavefunction)"
        )
    return stage.strength


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


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Guide table of cdf: searchsorted(cdf, u, "right") for every u in a bucket, or -1.

    Bucket k holds u in [k, k+1) / GUIDE_SIZE.  Where no CDF value lies
    in the bucket, every u in it has the same search result, that of its
    lower edge; a bucket that holds a CDF value is marked -1 and its u
    are searched in full (Chen & Asau, AIIE Trans. 6, 163 (1974)).
    """
    table = np.searchsorted(cdf, np.arange(GUIDE_SIZE) / GUIDE_SIZE, side="right").astype(np.int32)
    table[(cdf[cdf < 1.0] * GUIDE_SIZE).astype(np.intp)] = -1
    return table


def _reading_nodes(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """searchsorted(cdf, u, side="right"), through the guide table of cdf."""
    nodes = guide[(u * GUIDE_SIZE).astype(np.intp)].astype(np.intp)
    miss = np.flatnonzero(nodes < 0)
    nodes[miss] = np.searchsorted(cdf, u[miss], side="right")
    return nodes


def _signs(positive: np.ndarray) -> np.ndarray:
    """+1 where positive is true and -1 elsewhere, as int8."""
    return positive.astype(np.int8) * 2 - 1


def _run_chain(cfg: BellChainConfig, trials: int, seed: int, chunk_trials: int, cpus: int) -> EmpiricalReport:
    """run_chain in chunks of chunk_trials on min(cpus, chunks) threads."""
    if trials < 1:
        raise InvalidParameterError(f"trial count must be >= 1, got {trials}")
    pointers = [_stage_pointer(stage) for stage in cfg.stages]
    p_plus_by_x, steered = _alice_steering(cfg)
    # built before any thread starts: reading_cdf is built on its first access; the samples
    # are zero-padded by two units on each side, so phi(q -/+ 1) is a plain gather
    stages = []
    for stage, pointer in zip(cfg.stages, pointers):
        unit = round(1.0 / pointer.grid_spacing)
        cdf = pointer.reading_cdf
        stages.append(
            (
                stage.bias,
                np.array([stage.dir0.vector, stage.dir1.vector]).T,  # (3, y)
                cdf,
                _guide_table(cdf),
                np.pad(pointer.samples, 2 * unit),
                unit,
                # q > 0 on the half-offset grid exactly when its node is at least
                # nodes/2, that is when lower is at least nodes/2 + unit
                pointer.samples.size // 2 + unit,
            )
        )

    def chunk_table(start: int) -> np.ndarray:
        count = min(chunk_trials, trials - start)

        def draw(block: int) -> np.ndarray:
            return _uniforms(seed, trials, block, start, count)

        x_bits = (draw(0) < 0.5).astype(np.int8)
        a_plus = draw(1) < np.take(p_plus_by_x, x_bits)
        # column 2x + a_index of the (3, x, a_index) table; a_index 0 is a = +1
        bloch = np.take(steered.reshape(3, 4), 2 * x_bits + ~a_plus, axis=1)  # (3, count)

        stage_inputs = []
        stage_outcomes = []
        for k, (bias, stage_directions, cdf, guide, padded, unit, positive) in enumerate(stages):
            y = (draw(2 + 3 * k) < bias).astype(np.int8)
            directions = np.take(stage_directions, y, axis=1)  # (3, count)
            c = bloch_dot(directions, bloch)
            plus = draw(3 + 3 * k) < (1.0 + c) / 2.0  # branch +1 with probability tr(pi+ rho)
            # q sits one unit from the sampled node, towards its branch; lower is the
            # padded index of q - 1, past the two units of padding
            lower = _reading_nodes(cdf, guide, draw(4 + 3 * k))
            lower += plus * (2 * unit)
            amp_minus = padded[lower]
            amp_plus = padded[2 * unit :][lower]
            # K_q = phi(q-1) pi+ + phi(q+1) pi-
            bloch = collapse_bloch(bloch, directions, amp_minus, amp_plus, c)

            stage_inputs.append(y)
            stage_outcomes.append(_signs(lower >= positive))
        return _outcome_table(x_bits, _signs(a_plus), stage_inputs, stage_outcomes)

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


def _outcome_table(x_bits, a, stage_inputs, stage_outcomes) -> np.ndarray:
    """Trial counts over (x, y_1..y_n, a, b_1..b_n), shaped (2,)*(2n+2); index 1 is outcome +1."""
    n_stages = len(stage_inputs)
    code = x_bits.astype(np.int64)
    for y in stage_inputs:
        code = code * 2 + y
    code = code * 2 + (1 + a) // 2
    for b in stage_outcomes:
        code = code * 2 + (1 + b) // 2
    return np.bincount(code, minlength=4 ** (n_stages + 1)).reshape((2,) * (2 * n_stages + 2))


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
    grid; strengths come from the stages (pointer-backed stages are
    measured by quadrature).  Alice's strong outcome a along u_x then
    has weight (R'_00 + a u_x.R'_{1:,0}) / 2 on each branch state R'.
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
    alice = np.einsum("xi,...i->x...", u, branches[..., 1:, 0])  # (x, y1, b1, .., yn, bn)
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


def chi_square_report(observed: dict, expected_probs: dict, trials: int) -> ChiSquareReport:
    """Pearson goodness of fit of observed counts against exact cell weights.

    The fit passes when p > 1e-3.  Cells with zero expected mass and zero
    observations are dropped; an observation in a zero-mass cell fails
    outright (p = 0).  Cells are visited in sorted key order (keys must
    be mutually comparable, as the outcome tuples are), so the report
    depends only on the contents of the two dicts, not on their
    insertion order or on hash randomization.
    """
    if trials < 1:
        raise InvalidParameterError(f"trial count must be >= 1, got {trials}")
    statistic = 0.0
    dropped = 0
    used = 0
    for key in sorted(set(observed) | set(expected_probs)):
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
    # imported here: scipy.special alone would more than double the start-up time of every command
    from scipy.special import gammaincc

    p_value = float(gammaincc(dof / 2.0, statistic / 2.0))
    return ChiSquareReport(statistic, dof, p_value, p_value > 1e-3, dropped)
