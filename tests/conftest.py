"""Shared helpers: random scenario generators and brute-force oracles."""

import itertools
import math

import numpy as np

from weakbell import (
    BellChainConfig,
    BobStage,
    Direction,
    InvalidParameterError,
    MeasurementStrength,
    PointerState,
)
from weakbell.bell import _check_outcomes_inputs, _stage_maps, pauli_coefficients, propagate
from weakbell.channel import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    as_density,
    bloch_dot,
    collapse_bloch,
    strength_pair,
)
from weakbell.montecarlo import (
    BobReport,
    EmpiricalReport,
    _alice_steering,
    _config_digest,
    _outcome_table,
    _reports,
    _stage_pointer,
)


def random_direction(rng) -> Direction:
    v = rng.normal(size=3)
    v = v / np.linalg.norm(v)
    return Direction(float(v[0]), float(v[1]), float(v[2]))


def random_strength(rng, radius: float = 0.99) -> MeasurementStrength:
    """Uniform-ish strength strictly inside the unit quarter disc."""
    r = radius * math.sqrt(rng.random())
    angle = rng.random() * math.pi / 2.0
    return MeasurementStrength(r * math.sin(angle), r * math.cos(angle))


def random_density(rng, dim: int = 2) -> np.ndarray:
    """Random full-rank density matrix via a Wishart-style construction."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_stage(rng) -> BobStage:
    return BobStage(
        random_direction(rng),
        random_direction(rng),
        random_strength(rng),
        bias=float(rng.random()),
    )


# --- the complex reference channel ------------------------------------------------------
# The paper's 2x2 density-matrix forms of the weak channel.  The package
# carries states as Bloch vectors and Pauli coefficients; these are the
# second implementation the tests compare it with.


def spin_operator(d: Direction) -> np.ndarray:
    """Spin observable d . sigma."""
    v = d.vector
    return v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z


def projectors(d: Direction) -> tuple[np.ndarray, np.ndarray]:
    """Projectors (I +/- d.sigma)/2 onto the eigenstates along d."""
    s = spin_operator(d)
    return (IDENTITY_2 + s) / 2.0, (IDENTITY_2 - s) / 2.0


def weak_unconditional(rho, d, quality_factor: float) -> np.ndarray:
    """Post-measurement state with the outcome discarded: F rho + (1-F)(pi+ rho pi+ + pi- rho pi-)."""
    if not 0.0 <= quality_factor <= 1.0:
        raise InvalidParameterError(f"quality factor must lie in [0, 1], got {quality_factor}")
    rho = as_density(rho, 2)
    pp, pm = projectors(d)
    return quality_factor * rho + (1.0 - quality_factor) * (pp @ rho @ pp + pm @ rho @ pm)


def outcome_probabilities(rho, d, precision: float) -> tuple[float, float]:
    """(P(+1), P(-1)): strong Born weights mixed with a coin flip."""
    if not 0.0 <= precision <= 1.0:
        raise InvalidParameterError(f"precision must lie in [0, 1], got {precision}")
    rho = as_density(rho, 2)
    pp, _ = projectors(d)
    p_strong = float(np.trace(pp @ rho).real)
    p_plus = precision * p_strong + (1.0 - precision) / 2.0
    return p_plus, 1.0 - p_plus


def weak_conditional(rho, d, strength, outcome: int) -> np.ndarray:
    """Unnormalized post-measurement state given the digitized outcome; its trace is P(outcome)."""
    if outcome not in (1, -1):
        raise InvalidParameterError(f"outcome must be +1 or -1, got {outcome}")
    F, G = strength_pair(strength)
    rho = as_density(rho, 2)
    pp, pm = projectors(d)
    return (
        (F / 2.0) * rho
        + ((1.0 + outcome * G - F) / 2.0) * (pp @ rho @ pp)
        + ((1.0 - outcome * G - F) / 2.0) * (pm @ rho @ pm)
    )


def value_at(pointer: PointerState, q: float) -> float:
    """Amplitude at the node nearest q; zero outside the grid."""
    idx = round((q - pointer.grid_origin) / pointer.grid_spacing)
    return float(pointer.samples[idx]) if 0 <= idx < pointer.samples.size else 0.0


def kraus_at_reading(pointer: PointerState, d, reading: float) -> np.ndarray:
    """Collapse operator K_q = phi(q-1) pi+ + phi(q+1) pi- at pointer reading q; zero off the grid."""
    pp, pm = projectors(d)
    return value_at(pointer, reading - 1.0) * pp + value_at(pointer, reading + 1.0) * pm


def decohere(rho, d) -> np.ndarray:
    """Project out coherences in the eigenbasis along d (idempotent)."""
    rho = as_density(rho, 2)
    pp, pm = projectors(d)
    return pp @ rho @ pp + pm @ rho @ pm


def steered_state(direction, outcome: int) -> np.ndarray:
    """Bob's state after Alice's strong outcome a along u: (I - a u.sigma)/2."""
    if outcome not in (1, -1):
        raise InvalidParameterError(f"outcome must be +1 or -1, got {outcome}")
    return (np.eye(2, dtype=complex) - outcome * spin_operator(direction)) / 2.0


def triple_probability_oracle(a, b1, b2, x, y1, y2, geometry, strength) -> float:
    """bell.triple_probability by steering, the conditional weak channel and a strong projection."""
    _check_outcomes_inputs(a, b1, b2, x, y1, y2)
    rho = steered_state(geometry.alice[x], a)
    conditional = weak_conditional(rho, geometry.first[y1], strength, b1)
    pp, pm = projectors(geometry.second[y2])
    pi_b2 = pp if b2 == 1 else pm
    return 0.5 * float(np.trace(pi_b2 @ conditional).real)


def on_second_qubit(channel, rho4) -> np.ndarray:
    """Apply a linear single-qubit map to the second factor of a 4x4 state."""
    rho4 = as_density(rho4, 4)
    blocks = rho4.reshape(2, 2, 2, 2)
    out = np.empty_like(blocks)
    for i in range(2):
        for j in range(2):
            out[i, :, j, :] = channel(blocks[i, :, j, :])
    return out.reshape(4, 4)


def enumerate_joint(cfg) -> dict:
    """Brute-force oracle for the joint distribution over (x, y_1..y_n, a, b_1..b_n).

    Steers Bob's qubit with np.kron projectors of Alice's outcome, then
    applies the complex conditional weak channel branch by branch.
    Exponential in the number of stages; for cross-checking
    montecarlo.analytic_joint only.
    """
    n_stages = len(cfg.stages)
    strengths = [stage.resolved_strength() for stage in cfg.stages]
    rho0 = np.asarray(cfg.initial_state, dtype=complex)
    out = {}
    for x, alice_dir in enumerate((cfg.alice_dir0, cfg.alice_dir1)):
        for a_val, projector in zip((1, -1), projectors(alice_dir)):
            big = np.kron(projector, np.eye(2))
            collapsed = big @ rho0 @ big
            steered = collapsed[0:2, 0:2] + collapsed[2:4, 2:4]  # unnormalized, trace P(a|x)
            for ys in itertools.product((0, 1), repeat=n_stages):
                p_inputs = 0.5
                for stage, y in zip(cfg.stages, ys):
                    p_inputs *= stage.bias if y == 1 else 1.0 - stage.bias
                for bs in itertools.product((1, -1), repeat=n_stages):
                    state = steered
                    for stage, strength, y, b in zip(cfg.stages, strengths, ys, bs):
                        direction = stage.dir1 if y == 1 else stage.dir0
                        state = weak_conditional(state, direction, strength, b)
                    out[(x, *ys, a_val, *bs)] = p_inputs * float(np.trace(state).real)
    return out


def enumerate_chain_state(cfg, n: int) -> np.ndarray:
    """Brute-force oracle for the state before Bob_n's measurement.

    Sums over every input string of the prior Bobs (weighted by the
    biases) and every subset of decohering Bobs (weighted by the
    quality factors), applying the decoherence maps in chain order.
    Exponential in n; for cross-checking the averaged propagation only.
    """
    stages = cfg.stages[: n - 1]
    m = len(stages)
    total = np.zeros((4, 4), dtype=complex)
    for inputs in itertools.product((0, 1), repeat=m):
        weight_inputs = 1.0
        for stage, y in zip(stages, inputs):
            weight_inputs *= stage.bias if y == 1 else 1.0 - stage.bias
        for subset in itertools.product((False, True), repeat=m):
            weight = weight_inputs
            rho = np.array(cfg.initial_state, dtype=complex)
            for stage, y, decoheres in zip(stages, inputs, subset):
                quality = stage.resolved_strength().quality_factor
                if decoheres:
                    weight *= 1.0 - quality
                    direction = stage.dir1 if y == 1 else stage.dir0
                    pp, pm = projectors(direction)
                    rho = on_second_qubit(lambda r, pp=pp, pm=pm: pp @ r @ pp + pm @ r @ pm, rho)
                else:
                    weight *= quality
            total += weight * rho
    return total


def kron_chsh(state, alice_dirs, bob_dirs, precision: float) -> float:
    """CHSH at Bob precision G from np.kron observables on a complex 4x4 state."""
    e = [
        [
            precision * float(np.trace(state @ np.kron(spin_operator(u), spin_operator(w))).real)
            for w in bob_dirs
        ]
        for u in alice_dirs
    ]
    return e[0][0] + e[0][1] + e[1][0] - e[1][1]


def oracle_chain_chsh(alice, bob, strengths) -> list[float]:
    """CHSH of every Bob in an unbiased chain sharing one pair of settings.

    strengths are the prior Bobs' strengths (at least one); the last Bob
    is strong.  Each state comes from enumerate_chain_state, each
    correlator from np.kron.
    """
    stages = tuple(BobStage(bob[0], bob[1], s, bias=0.5) for s in strengths)
    cfg = BellChainConfig(alice[0], alice[1], stages=stages)
    precisions = [s.precision for s in strengths] + [1.0]
    return [
        kron_chsh(enumerate_chain_state(cfg, n), alice, bob, g)
        for n, g in enumerate(precisions, 1)
    ]


# --- per-node pointer oracles -------------------------------------------------------
# The node-by-node constructions that pointer.py replaced with per-interval
# ones; the pointer tests require the two to agree bit for bit.


def _oracle_interval_indices(q: np.ndarray) -> np.ndarray:
    """Interval index n of each position, q in (2n-1, 2n+1]."""
    return np.rint(q / 2.0)


def _oracle_normalized(samples: np.ndarray, grid_spacing: float) -> PointerState:
    norm = math.sqrt(float(np.sum(samples * samples)) * grid_spacing)
    return PointerState(samples / norm, grid_spacing)


def oracle_optimal_from_central(central_samples, target_precision: float, grid_spacing: float) -> PointerState:
    """Frontier pointer built node by node: positions, rint, modulo gather and one pow per node.

    Intervals of relative weight below 1e-14, the builders' envelope cutoff, are dropped.
    """
    cells = round(1.0 / grid_spacing)
    central = np.asarray(central_samples, dtype=float)
    mass = float(np.sum(central * central)) * grid_spacing
    central = central * math.sqrt(target_precision / mass)
    ratio = (1.0 - target_precision) / (1.0 + target_precision)
    n_intervals = max(1, math.ceil(math.log(1e-14) / math.log(ratio)))
    radius_cells = (2 * n_intervals + 1) * cells
    q = (np.arange(2 * radius_cells, dtype=float) - radius_cells + 0.5) * grid_spacing
    n = _oracle_interval_indices(q)
    samples = central[np.arange(q.size) % (2 * cells)] * np.power(ratio, np.abs(n) / 2.0)
    return _oracle_normalized(samples, grid_spacing)


def oracle_make_worst(base: PointerState) -> PointerState:
    """Worst pointer from its frontier base, zeroing odd-|n| nodes one by one."""
    n = _oracle_interval_indices(base.positions)
    samples = np.where(np.abs(n) % 2 == 1, 0.0, base.samples)
    return _oracle_normalized(samples, base.grid_spacing)


def oracle_precision(state: PointerState) -> float:
    """Mass on (-1, 1) by masking the whole grid, clamped as pointer.precision clamps."""
    inside = np.abs(state.positions) < 1.0
    value = float(np.sum(state.samples[inside] ** 2) * state.grid_spacing)
    return min(1.0, max(0.0, value))


# --- Monte Carlo tally, joint and sampling oracles -------------------------------------
# The per-cell mask loop, np.unique count and key-by-key joint that
# montecarlo.py replaced with one outcome table, and the whole-run
# sampler it replaced with chunks; the tests require equal results.


def oracle_bob_reports(x_bits, a, stage_inputs, stage_outcomes) -> tuple:
    """Per-Bob reports from boolean masks, one pass per input cell and Bob."""
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
        per_bob.append(BobReport(correlations, counts, chsh_val, stderr, insufficient))
    return tuple(per_bob)


def oracle_count_outcomes(x_bits, a, stage_inputs, stage_outcomes) -> dict:
    """Counts keyed by (x, y_1..y_n, a, b_1..b_n), decoded bit by bit from np.unique."""
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


def oracle_analytic_joint(cfg) -> dict:
    """The propagated joint read out key by key over nested itertools loops."""
    n_stages = len(cfg.stages)
    maps = []
    for k, stage in enumerate(cfg.stages):
        quality, prec = strength_pair(stage.strength)
        stage_maps = _stage_maps(quality, prec, (stage.dir0, stage.dir1))
        maps.append(stage_maps.reshape((1, 1) * k + (2, 2) + (1, 1) * (n_stages - 1 - k) + (4, 4)))
    branches = propagate(pauli_coefficients(cfg.initial_state), maps)[-1]
    u = np.stack([cfg.alice_dir0.vector, cfg.alice_dir1.vector])
    alice = np.einsum("xi,...i->x...", u, branches[..., 1:, 0])
    out = {}
    for x in (0, 1):
        for ys in itertools.product((0, 1), repeat=n_stages):
            p_inputs = 0.5
            for stage, y in zip(cfg.stages, ys):
                p_inputs *= stage.bias if y == 1 else 1.0 - stage.bias
            for a_val in (1, -1):
                for bs in itertools.product((1, -1), repeat=n_stages):
                    branch = tuple(i for y, b in zip(ys, bs) for i in (y, (1 - b) // 2))
                    weight = branches[branch][0, 0] + a_val * alice[(x, *branch)]
                    out[(x, *ys, a_val, *bs)] = p_inputs * float(weight) / 2.0
    return out


def oracle_run_chain(cfg, trials: int, seed: int) -> EmpiricalReport:
    """run_chain as one whole-run pass: every block drawn in stream order from one generator."""
    pointers = [_stage_pointer(stage) for stage in cfg.stages]
    rng = np.random.Generator(np.random.Philox(key=seed))

    x_bits = (rng.random(trials) < 0.5).astype(np.int8)
    alice_uniform = rng.random(trials)
    p_plus_by_x, steered = _alice_steering(cfg)
    a = np.where(alice_uniform < p_plus_by_x[x_bits], 1, -1).astype(np.int8)
    a_index = ((1 - a) // 2).astype(np.int8)
    bloch = steered[:, x_bits, a_index].T  # (trials, 3)

    stage_inputs = []
    stage_outcomes = []
    for stage, pointer in zip(cfg.stages, pointers):
        y = (rng.random(trials) < stage.bias).astype(np.int8)
        branch_uniform = rng.random(trials)
        position_uniform = rng.random(trials)

        cells = round(1.0 / pointer.grid_spacing)
        samples = pointer.samples

        directions = np.stack([stage.dir0.vector, stage.dir1.vector])[y]
        p_plus = (1.0 + bloch_dot(directions.T, bloch.T)) / 2.0
        shifts = np.where(branch_uniform < p_plus, 1, -1).astype(np.int64)
        idx = np.searchsorted(pointer.reading_cdf, position_uniform, side="right")
        readings = pointer.positions[idx] + shifts

        idx_minus = idx + (shifts - 1) * cells
        idx_plus = idx + (shifts + 1) * cells
        amp_minus = np.where(
            (idx_minus >= 0) & (idx_minus < samples.size), samples[np.clip(idx_minus, 0, samples.size - 1)], 0.0
        )
        amp_plus = np.where(
            (idx_plus >= 0) & (idx_plus < samples.size), samples[np.clip(idx_plus, 0, samples.size - 1)], 0.0
        )
        bloch = collapse_bloch(bloch.T, directions.T, amp_minus, amp_plus).T

        stage_inputs.append(y)
        stage_outcomes.append(np.where(readings > 0.0, 1, -1).astype(np.int8))

    per_bob, outcome_counts = _reports(_outcome_table(x_bits, a, stage_inputs, stage_outcomes))
    return EmpiricalReport(_config_digest(cfg), seed, trials, per_bob, outcome_counts)
