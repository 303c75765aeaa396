"""Stochastic simulation of measurement chains, drawn as outcome counts.

A run's report depends only on its outcome table, the trial counts of
the cells (x, y_1..y_n, a, b_1..b_n).  The trials are independent and
identically distributed, so the table is Multinomial(T, p) over the
chain's joint law p, and run_chain draws it by splitting counts along
the chain: a binomial split of every cell at each step, in work and
memory of the 4*4^n cells whatever the trial count T is.

Each Bob acts only on the state the Bob before hands on, so the law is
fixed by the conditional stage maps C_{y,b} that bell builds.  A stage
is its MeasurementStrength (F, G) and nothing more: for a symmetric
real pointer, the reading b = sign(q) has probability (C_{y,b} v)_0,
and the collapses of the readings of that sign sum to C_{y,b} v.  The
tests check that against a sampler of actual pointer readings on
pointer grids (conftest.oracle_run_chain).

bell._chain_joint gives the law as one array over the walk's bits (x,
a, y_1, b_1, .., y_n, b_n), index 1 for input 1 or outcome +1, the
one joint that bell builds for every chain; analytic_joint keys it,
and run_chain draws from it and hands it on in its report, so a caller
that fits a run to its law keys that array and builds the law once.
The splits are the chain rule on that array: a split sends count n of
prefix cell c to cells 2c and 2c + 1, the latter holding Binomial(n, p)
with p = mass(2c + 1) / mass(c), a cell's mass being the joint summed
over the bits after it.  run_chain first zeroes every cell of mass at
most ZERO_MASS, the cells chi_square_report counts as impossible, so the
sampler and the fit share one definition of impossible: no trial reaches
such a cell, every p lies in [0, 1], and a prefix of no mass, which no
trial reaches, splits with p = 0.

Randomness comes from a Philox generator keyed by the seed.  The counts
start as [T], and each split is one vectorized Generator.binomial call
over all cells, in walk order: x, a, then each stage's y_k and b_k.
After the last split a cell's index bits read (x, a, y_1, b_1, .., y_n,
b_n); transposed to (x, y_1..y_n, a, b_1..b_n) they are the outcome
table.  One thread does it all.  A seed reproduces its report bit for
bit on one numpy version: NEP 19 does not promise the stream of
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
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .bell import BellChainConfig, _chain_joint
from .channel import strength_pair

# an analytic cell probability at most this is an impossible outcome, which
# run_chain never draws and chi_square_report drops: the joint of an exactly
# impossible cell (two strong Bobs reading one direction with different
# outcomes) is rounding noise of either sign, ~1e-17, and a cell this
# unlikely expects 1e-6 counts in cli.MAX_TRIALS = 1e9 trials
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
    # the exact joint run_chain split the counts by, on bell._chain_joint's axes
    # (None in a report drawn otherwise); to_dict and == leave it out
    joint: np.ndarray | None = field(default=None, repr=False, compare=False)

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


def _table_axes(cells: np.ndarray) -> np.ndarray:
    """An array over (x, a, y_1, b_1, .., y_n, b_n) on the outcome table's axes, (x, y_1..y_n, a, b_1..b_n)."""
    n_stages = cells.ndim // 2 - 1
    return cells.transpose(0, *range(2, 2 * n_stages + 2, 2), 1, *range(3, 2 * n_stages + 2, 2))


def _split(rng: np.random.Generator, counts: np.ndarray, p) -> np.ndarray:
    """Count n of cell c sent to cells 2c and 2c + 1, the latter Binomial(n, p); p is read as 0 where n is 0."""
    ones = rng.binomial(counts, np.where(counts > 0, p, 0.0))
    return np.stack([counts - ones, ones], axis=-1).ravel()


def run_chain(cfg: BellChainConfig, trials: int, seed: int) -> EmpiricalReport:
    """Simulate trials of the full chain and report per-Bob correlators and CHSH values.

    Draws the outcome table by binomial splits along the chain, the chain
    rule on bell._chain_joint in the order the module docstring gives;
    the work does not grow with trials.  The report carries that joint.
    """
    if trials < 1:
        raise InvalidParameterError(f"trial count must be >= 1, got {trials}")
    joint = _chain_joint(cfg)
    # the masses of every prefix, level by level from the whole cells up to the total
    masses = [np.where(joint > ZERO_MASS, joint, 0.0).ravel()]
    while masses[-1].size > 1:
        masses.append(masses[-1].reshape(-1, 2).sum(axis=1))
    rng = np.random.Generator(np.random.Philox(key=seed))
    counts = np.array([trials])
    for prefix, cells in zip(masses[:0:-1], masses[-2::-1]):
        # a prefix of no mass holds no count and splits with p = 0
        counts = _split(rng, counts, cells[1::2] / np.where(prefix > 0.0, prefix, 1.0))
    per_bob, outcome_counts = _reports(_table_axes(counts.reshape(joint.shape)))
    return EmpiricalReport(
        config_digest=_config_digest(cfg),
        seed=seed,
        trials=trials,
        per_bob=per_bob,
        outcome_counts=outcome_counts,
        joint=joint,
    )


def _keyed(table: np.ndarray, cells: np.ndarray) -> dict:
    """{(x, y_1..y_n, a, b_1..b_n): table[cell]} for the index rows cells, in their order; outcome index 1 is +1."""
    n_inputs = table.ndim // 2
    keys = np.concatenate([cells[:, :n_inputs], 2 * cells[:, n_inputs:] - 1], axis=1)
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
    return tuple(per_bob), _keyed(table, np.argwhere(table))


def analytic_joint(cfg: BellChainConfig) -> dict:
    """Exact joint distribution over (x, y_1..y_n, a, b_1..b_n), keyed in index order with +1 first.

    run_chain draws from the same array (bell._chain_joint), so a
    chi-square of a run against this joint checks the draw, the tally and
    the keying, not the law.  The law's independent checks live in the
    tests: complex branch enumeration (conftest.enumerate_joint), a
    sampler of actual pointer readings on grids (conftest.oracle_run_chain),
    the paper's weak-then-strong formula (conftest.oracle_triple_closed_form)
    and the CHSH closed forms of acceptance claim c11.
    """
    return _keyed_joint(_chain_joint(cfg))


def _keyed_joint(joint: np.ndarray) -> dict:
    """bell._chain_joint's array keyed as analytic_joint keys it."""
    table = _table_axes(joint)
    cells = np.argwhere(np.ones(table.shape, dtype=bool))
    cells[:, table.ndim // 2 :] ^= 1  # +1 first on the outcome axes
    return _keyed(table, cells)


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
