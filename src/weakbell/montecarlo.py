"""Stochastic simulation of measurement chains, drawn as outcome counts.

A run's report depends only on its outcome table, the trial counts of
the cells (x, y_1..y_n, a, b_1..b_n).  The trials are independent and
identically distributed, so the table is Multinomial(T, p) over the
chain's joint law p, and run_chain draws it by splitting counts along
the chain: a binomial split of every cell at each step, in work and
memory of the 4*4^n cells whatever the trial count T is.

Each Bob acts only on the state the Bob before hands on, so the law is
fixed by the conditional stage maps C_{y,b} of bell._stage_maps, the
maps analytic_joint propagates.  A stage is its MeasurementStrength
(F, G) and nothing more: for a symmetric real pointer, the reading
b = sign(q) has probability (C_{y,b} v)_0, and the collapses of the
readings of that sign sum to C_{y,b} v.  The tests check that against
a sampler of actual pointer readings on pointer grids
(conftest.oracle_run_chain).

A branch carries Bob's state as a normalized Pauli 4-vector v = (1, r).
Alice's strong outcome is steered in closed form from the Pauli
coefficients R of the initial state: after outcome a on input x, Bob's
unnormalized vector is R_{0,:} + a u_x.R_{1:,:}, whose 0 component is
2 P(a|x); its state is row 2x + a_index (a_index 1 is a = +1).  Stage
k's branch of key = state*2 + y takes b = +1 with probability
(C_{y,+} v)_0 and hands on C_{y,b} v / (C_{y,b} v)_0 as state
key*2 + b_index (b_index 1 is b = +1).  run_chain computes these once
per run for every key, before any draw.  A branch no trial can reach
may hold 0/0; its cell has no count and its probability is read as 0.
Probabilities are clipped to [0, 1], as a compare of a uniform with them
would: the branch a strong Bob cannot take rounds to within about 1e-16
of 0, on either side.

Randomness comes from a Philox generator keyed by the seed.  The counts
start as [T], and a split sends count n of cell c to cells 2c and
2c + 1, the latter holding Binomial(n, p), one vectorized
Generator.binomial call over all cells.  The splits are, in order: x
(p = 1/2); a (P(a=+1|x)); then for each stage in order its input y_k
for every state (p = the stage's bias) and its outcome b_k for every key
(P(b_k=+1|key)).  After the last stage a cell's index bits read
(x, a, y_1, b_1, .., y_n, b_n); transposed to (x, y_1..y_n, a,
b_1..b_n) they are the outcome table, each axis's index 1 input 1 or
outcome +1.  One thread does it all.  A seed reproduces its report bit
for bit on one numpy version: NEP 19 does not promise the stream of
Generator.binomial across numpy releases.

The per-Bob reports are the table's marginals and outcome_counts its
non-zero cells in index order.  analytic_joint keys run in index order
with +1 first.  chi_square_report sums its cells in sorted key order, so
neither order reaches its statistic, counts a cell of analytic mass at
most ZERO_MASS as impossible, and reads its p-value from the closed
forms of the chi-square tail at integer degrees of freedom (Abramowitz
& Stegun 26.4.4-26.4.5): a Poisson sum for even dof, erfc plus a
half-integer sum for odd dof.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .bell import BellChainConfig, _stage_maps, pauli_coefficients, propagate
from .channel import bloch_dot, strength_pair

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


def _branch_probabilities(cfg: BellChainConfig) -> list[np.ndarray]:
    """P(a=+1|x), shaped (2,), then each stage's P(b_k=+1) of every key = state*2 + y.

    Stage 0's states are Alice's steered ones, row 2x + a_index; stage
    k+1's are stage k's C_{y,b} v / (C_{y,b} v)_0, row key*2 + b_index.
    A branch of zero weight leaves 0/0 in the states after it.
    """
    pauli = pauli_coefficients(cfg.initial_state)
    u = np.stack([cfg.alice_dir0.vector, cfg.alice_dir1.vector])  # (x, 3)
    signs = np.array([-1.0, 1.0])  # a for a_index 0, 1
    steered = pauli[0] + signs[:, None] * (u @ pauli[1:])[:, None, :]  # (x, a_index, 4): 2 P(a|x) (1, r)
    probabilities = [steered[:, 1, 0] / 2.0]
    with np.errstate(divide="ignore", invalid="ignore"):
        states = (steered / steered[..., :1]).reshape(-1, 4)
        for stage in cfg.stages:
            # outcome axis flipped, so b_index 1 is b = +1
            maps = _stage_maps(*strength_pair(stage.strength), (stage.dir0, stage.dir1))[:, ::-1]
            # the states as rows: (state, y, b_index, 4), each row C_{y,b} v
            branches = propagate(states[:, None, None, None, :], [maps])[1][..., 0, :]
            probabilities.append(branches[..., 1, 0].ravel())
            states = (branches / branches[..., :1]).reshape(-1, 4)
    return probabilities


def _table_axes(cells: np.ndarray) -> np.ndarray:
    """An array over (x, a, y_1, b_1, .., y_n, b_n) on the outcome table's axes, (x, y_1..y_n, a, b_1..b_n)."""
    n_stages = cells.ndim // 2 - 1
    return cells.transpose(0, *range(2, 2 * n_stages + 2, 2), 1, *range(3, 2 * n_stages + 2, 2))


def _split(rng: np.random.Generator, counts: np.ndarray, p) -> np.ndarray:
    """Count n of cell c sent to cells 2c and 2c + 1, the latter Binomial(n, p), p clipped to [0, 1].

    A cell with no count may hold an undefined p (0/0); it is read as 0.
    """
    ones = rng.binomial(counts, np.clip(np.where(counts > 0, p, 0.0), 0.0, 1.0))
    return np.stack([counts - ones, ones], axis=-1).ravel()


def run_chain(cfg: BellChainConfig, trials: int, seed: int) -> EmpiricalReport:
    """Simulate trials of the full chain and report per-Bob correlators and CHSH values.

    Draws the outcome table by binomial splits along the chain, in the
    order the module docstring gives; the work does not grow with trials.
    """
    if trials < 1:
        raise InvalidParameterError(f"trial count must be >= 1, got {trials}")
    p_alice, *p_stages = _branch_probabilities(cfg)
    rng = np.random.Generator(np.random.Philox(key=seed))
    counts = _split(rng, np.array([trials]), 0.5)  # x
    counts = _split(rng, counts, p_alice)  # a, cell 2x + a_index
    for stage, p_plus in zip(cfg.stages, p_stages):
        counts = _split(rng, counts, stage.bias)  # y_k, cell key = state*2 + y
        counts = _split(rng, counts, p_plus)  # b_k, cell key*2 + b_index
    per_bob, outcome_counts = _reports(_table_axes(counts.reshape((2,) * (2 * len(cfg.stages) + 2))))
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
    It shares the stage maps with run_chain, not its walk, draws or
    tally, so it serves as their chi-square reference; the maps
    themselves are checked in the tests against complex branch
    enumeration and a sampler of actual pointer readings.
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
    weight = _table_axes(branches[..., 0, 0] + a_sign * alice[:, None])
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
