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
that fits a run to its law builds the law once.  The splits are the
chain rule on that array, laid out as a heap: node 1 is the whole
trial count, node i has children 2i and 2i + 1, and the 2^j nodes of
level j are the prefix cells of the first j bits, so the leaves are the
joint's cells in walk order.  A split sends count n of node i to its
children, the latter holding Binomial(n, p_i) with p_i = mass(2i + 1)
/ mass(i), a node's mass being the joint summed over its leaves.
Before the first draw, run_chain zeroes every cell of mass at most
ZERO_MASS, the cells the fit counts as impossible, sums the mass
pyramid up the heap and divides out every split's p_i.  So the sampler
and the fit share one definition of impossible: no trial reaches such
a cell, every p lies in [0, 1], and a node of no mass, which no trial
reaches, splits with p = 0.

Randomness comes from a Philox generator keyed by the seed.  Each level
of splits is one vectorized Generator.binomial call over all its nodes,
in walk order: x, a, then each stage's y_k and b_k, and it writes the
next level's counts into one heap of counts.  The leaves' counts,
transposed from (x, a, y_1, b_1, .., y_n, b_n) to (x, y_1..y_n, a,
b_1..b_n), are the outcome table.  One thread does it all.  A seed
reproduces its report bit for bit on one numpy version: NEP 19 does not
promise the stream of Generator.binomial across numpy releases.

The report keeps the table, as it keeps the joint.  The per-Bob reports
are the table's marginals, read as Python ints, and outcome_counts its
non-zero cells in index order, keyed only when asked.  analytic_joint
keys run in index order with +1 first.  The fit is one core, _chi_square,
which walks (count, probability) pairs in order: it counts a cell of
analytic mass at most ZERO_MASS as impossible, and reads its p-value
from the closed forms of the chi-square tail at integer degrees of
freedom (Abramowitz & Stegun 26.4.4-26.4.5): a Poisson sum for even
dof, erfc plus a half-integer sum for odd dof.  The command hands it
the table and the joint on the table's axes, in C order;
chi_square_report hands it two dicts' cells in sorted key order.  The
two orders are one: tuples sort entry by entry, and on every axis of the
table index order is value order (input 0 before 1, and outcome index 0
is -1), so a run fits to the same bits either way.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .bell import BellChainConfig, _chain_joint
from .channel import strength_pair

# an analytic cell probability at most this is an impossible outcome, which
# run_chain never draws and the chi-square fit drops: the joint of an exactly
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
    """A run: its outcome table, the per-Bob reports read from it and, from run_chain, the joint it was drawn from.

    The table holds the trial counts of every cell; outcome_counts keys
    its non-zero cells at the first call and keeps them.
    """

    config_digest: str
    seed: int
    trials: int
    per_bob: tuple[BobReport, ...]
    # the outcome table, trial counts over (x, y_1..y_n, a, b_1..b_n), and the
    # exact joint run_chain split them by, on bell._chain_joint's axes (None in
    # a report drawn otherwise); to_dict and == leave both out
    table: np.ndarray = field(repr=False, compare=False)
    joint: np.ndarray | None = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def outcome_counts(self) -> dict:
        """The table's non-zero cells in index order, keyed (x, y_1..y_n, a, b_1..b_n) with outcomes +-1."""
        return _keyed(self.table, np.argwhere(self.table))

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
    # tolist() hands json Python floats, whose repr is that of the numpy scalars
    parts = {
        "alice": [cfg.alice_dir0.vector.tolist(), cfg.alice_dir1.vector.tolist()],
        "stages": [
            {
                "dir0": stage.dir0.vector.tolist(),
                "dir1": stage.dir1.vector.tolist(),
                "strength": list(strength_pair(stage.strength)),
                "bias": stage.bias,
            }
            for stage in cfg.stages
        ],
        "initial_state": [[c.real, c.imag] for c in np.asarray(cfg.initial_state).ravel().tolist()],
    }
    payload = json.dumps(parts, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def _table_axes(cells: np.ndarray) -> np.ndarray:
    """An array over (x, a, y_1, b_1, .., y_n, b_n) on the outcome table's axes, (x, y_1..y_n, a, b_1..b_n)."""
    n_stages = cells.ndim // 2 - 1
    return cells.transpose(0, *range(2, 2 * n_stages + 2, 2), 1, *range(3, 2 * n_stages + 2, 2))


def _split_probabilities(joint: np.ndarray) -> np.ndarray:
    """Every split's probability of index 1 on a heap over joint's cells in walk order.

    Node i has children 2i and 2i + 1; the leaves joint.size..2 joint.size - 1
    hold the cells, each zeroed where its mass is at most ZERO_MASS, and an
    inner node the sum of its children.  Entry i of the result is
    mass(2i + 1) / mass(i), 0 where node i has no mass; entry 0 is unused.
    """
    size = joint.size
    mass = np.empty(2 * size)
    mass[size:] = np.where(joint > ZERO_MASS, joint, 0.0).ravel()
    level = size // 2
    while level:
        np.add(mass[2 * level : 4 * level : 2], mass[2 * level + 1 : 4 * level : 2], out=mass[level : 2 * level])
        level //= 2
    p = np.zeros(size)
    inner = mass[1:size]
    p[1:] = mass[3::2] / np.where(inner > 0.0, inner, 1.0)
    return p


def _split(rng: np.random.Generator, counts: np.ndarray, p: np.ndarray, level: int) -> None:
    """Count n of node i, level <= i < 2 level, sent to nodes 2i and 2i + 1, the latter Binomial(n, p[i]).

    counts and p are heaps as _split_probabilities orders them; the
    children's counts are written in place, and p is read as 0 where n is 0.
    """
    n = counts[level : 2 * level]
    ones = rng.binomial(n, np.where(n > 0, p[level : 2 * level], 0.0))
    counts[2 * level + 1 : 4 * level : 2] = ones
    counts[2 * level : 4 * level : 2] = n - ones


def run_chain(cfg: BellChainConfig, trials: int, seed: int) -> EmpiricalReport:
    """Simulate trials of the full chain and report per-Bob correlators and CHSH values.

    Draws the outcome table by binomial splits along the chain, the chain
    rule on bell._chain_joint in the order the module docstring gives;
    the work does not grow with trials.  Every split probability is
    computed before the first draw, and each level of splits is one
    Generator.binomial call that writes its counts into one heap.  The
    report carries the table and that joint.
    """
    if trials < 1:
        raise InvalidParameterError(f"trial count must be >= 1, got {trials}")
    joint = _chain_joint(cfg)
    p = _split_probabilities(joint)
    counts = np.zeros(2 * joint.size, dtype=np.int64)
    counts[1] = trials
    rng = np.random.Generator(np.random.Philox(key=seed))
    level = 1
    while level < joint.size:
        _split(rng, counts, p, level)
        level *= 2
    table = _table_axes(counts[joint.size :].reshape(joint.shape))
    return EmpiricalReport(
        config_digest=_config_digest(cfg),
        seed=seed,
        trials=trials,
        per_bob=_reports(table),
        table=table,
        joint=joint,
    )


def _keyed(table: np.ndarray, cells: np.ndarray) -> dict:
    """{(x, y_1..y_n, a, b_1..b_n): table[cell]} for the index rows cells, in their order; outcome index 1 is +1."""
    n_inputs = table.ndim // 2
    keys = np.concatenate([cells[:, :n_inputs], 2 * cells[:, n_inputs:] - 1], axis=1)
    return dict(zip(map(tuple, keys.tolist()), table[tuple(cells.T)].tolist()))


def _reports(table: np.ndarray) -> tuple[BobReport, ...]:
    """Per-Bob reports from an outcome table."""
    n_stages = table.ndim // 2 - 1
    per_bob = []
    for k in range(1, n_stages + 1):
        kept = (0, k, n_stages + 1, n_stages + 1 + k)
        # the 16 counts of (x, y_k, a, b_k), as Python ints
        marginal = table.sum(axis=tuple(i for i in range(table.ndim) if i not in kept)).tolist()
        counts = {}
        e = {}
        for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
            (minus_minus, minus_plus), (plus_minus, plus_plus) = marginal[x][y]
            n = minus_minus + minus_plus + plus_minus + plus_plus
            counts[(x, y)] = n
            # sum of a b over the input cell, agreements minus disagreements: an
            # integer ratio rounds once, to the same float as the mean of the +-1 products
            e[(x, y)] = (minus_minus + plus_plus - minus_plus - plus_minus) / n if n else math.nan
        insufficient = 0 in counts.values()
        chsh_val, stderr = math.nan, math.nan
        if not insufficient:
            variance = 0.0
            for key, n in counts.items():
                variance += (1.0 - e[key] * e[key]) / n
            chsh_val = e[(0, 0)] + e[(0, 1)] + e[(1, 0)] - e[(1, 1)]
            stderr = math.sqrt(variance)
        per_bob.append(BobReport(e, counts, chsh_val, stderr, insufficient))
    return tuple(per_bob)


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
    table = _table_axes(_chain_joint(cfg))
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

    The fit is _chi_square's, over the union of the two dicts' keys in
    sorted order (keys must be mutually comparable, as the outcome tuples
    are); a key missing from a dict counts 0.  So the report depends only
    on the contents of the two dicts, not on their insertion order or on
    hash randomization, and on a run's outcome_counts and analytic_joint it
    is the fit of the run's table against its joint.
    """
    keys = sorted(set(observed) | set(expected_probs))
    return _chi_square(
        np.array([observed.get(key, 0) for key in keys], dtype=float),
        np.array([expected_probs.get(key, 0.0) for key in keys], dtype=float),
        trials,
    )


def _chi_square(observed: np.ndarray, probabilities: np.ndarray, trials: int) -> ChiSquareReport:
    """Pearson goodness of fit of counts against exact cell weights of one shape, cells walked in C order.

    The fit passes when p > 1e-3, p being the chi-square tail at the
    fit's integer dof in closed form (_chi_square_tail).  A cell whose
    expected probability is at most ZERO_MASS is impossible: it is
    dropped when it holds no observations, and an observation in it
    fails the fit outright (p = 0).  The statistic is summed in cell
    order, so an outcome table and its joint on the table's axes fit as
    their keyed dicts do: C order is sorted key order.
    """
    if trials < 1:
        raise InvalidParameterError(f"trial count must be >= 1, got {trials}")
    statistic = 0.0
    dropped = 0
    used = 0
    for count, probability in zip(observed.ravel().tolist(), probabilities.ravel().tolist(), strict=True):
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
