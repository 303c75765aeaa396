"""Shared helpers: random scenario generators and brute-force oracles."""

import itertools
import math
from typing import NamedTuple

import numpy as np

from weakbell import (
    BellChainConfig,
    BobStage,
    Direction,
    InvalidParameterError,
    InvalidStateError,
    MeasurementStrength,
    PhysicalityError,
    PointerState,
    strength_of,
)
from weakbell.bell import (
    TripleScanReport,
    _bob_maps,
    _propagated_joint,
    _stage_maps,
    pauli_coefficients,
    propagate,
    singlet,
    tsirelson_alice,
    tsirelson_bob,
)
from weakbell.channel import (
    DIR_X,
    DIR_Z,
    IDENTITY_2,
    PAULI_XYZ,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    as_density,
    bloch_dot,
    strength_pair,
)
from weakbell import pointer
from weakbell.pointer import (
    _cells_per_unit,
    _node_cap_error,
    _normalized_state,
    _too_narrow,
)
from weakbell.montecarlo import (
    ZERO_MASS,
    BobReport,
    EmpiricalReport,
    _config_digest,
    _reports,
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


# --- views of the one chain joint and propagator ------------------------------------------
# The scenarios the paper's claims are stated in, as data, and the few
# lines that read bell's joint (_propagated_joint) and propagator
# (propagate through _bob_maps) for them: the same code the commands run.


class Geometry(NamedTuple):
    """Directions for Alice, the weak stage and the strong stage, each a pair for inputs 0/1."""

    alice: tuple
    first: tuple
    second: tuple


def random_geometry(rng) -> Geometry:
    return Geometry(*((random_direction(rng), random_direction(rng)) for _ in range(3)))


def tangent_geometry(angle: float) -> Geometry:
    """At inputs 0, u = Z, w = -X, v = Z sin(t) - X cos(t): outcome (1, -1, 1) has probability (1 - F sin t - G cos t)/8."""
    return Geometry(
        (DIR_Z, DIR_X), (Direction(-1.0, 0.0, 0.0), DIR_Z), (Direction(-math.cos(angle), 0.0, math.sin(angle)), DIR_X)
    )


def triple_law(geometry: Geometry, quality: float, prec: float) -> np.ndarray:
    """P(a b1 b2 | x y1 y2) at triple_cell: 8 times the singlet chain's joint, raw (F, G) then strong, inputs unbiased."""
    stages = ((quality, prec, geometry.first, 0.5), (0.0, 1.0, geometry.second, 0.5))
    return 8.0 * _propagated_joint(pauli_coefficients(singlet()), geometry.alice, stages)


def triple_cell(a, b1, b2, x, y1, y2) -> tuple:
    """Index of P(a b1 b2 | x y1 y2) in the joint's axes (x, a, y1, b1, y2, b2), index 1 for outcome +1."""
    return x, (1 + a) // 2, y1, (1 + b1) // 2, y2, (1 + b2) // 2


def averaged_states(cfg) -> list:
    """Pauli coefficients before Bob_1 .. Bob_{n+1}: propagate through each stage's input-averaged _bob_maps."""
    maps = [_bob_maps(stage.strength.quality_factor, (stage.dir0, stage.dir1), stage.bias) for stage in cfg.stages]
    return propagate(pauli_coefficients(cfg.initial_state), maps)


def sign_and_bound(strength: MeasurementStrength) -> tuple[float, float]:
    """Success of reading the sign, (1+G)/2, and the bound no measurement of the displaced pointers beats, (1 + sqrt(1-F^2))/2."""
    return (1.0 + strength.precision) / 2.0, (1.0 + math.sqrt(1.0 - strength.quality_factor**2)) / 2.0


def protocol_config(schedule) -> BellChainConfig:
    """The zero-bias chain of a schedule: Alice on -Z, X; Bob_n on Z, cos(t_n) Z + sin(t_n) X at (F_n, G_n)."""
    stages = tuple(
        BobStage(
            DIR_Z,
            Direction(math.sin(row.angle), 0.0, math.cos(row.angle)),
            MeasurementStrength(row.quality_factor, row.precision),
            bias=0.0,
        )
        for row in schedule.rows
    )
    return BellChainConfig(Direction(0.0, 0.0, -1.0), DIR_X, stages=stages)


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


def collapse_bloch(bloch, directions, a, b, c=None) -> np.ndarray:
    """Normalized Bloch vectors after the Kraus operator K = a pi+ + b pi-.

    bloch and directions are component-first (3, ...) arrays, a and b
    the (...) arrays of real amplitudes, and c, when given, is
    bloch_dot(directions, bloch).  The collapsed state K rho K has trace
    N = ((a^2 + b^2) + (a^2 - b^2) c) / 2 and Bloch vector

        r' = (a b (r - c d) + ((a^2 + b^2) c + a^2 - b^2) / 2 d) / N.
    """
    r = np.asarray(bloch, dtype=float)
    d = np.asarray(directions, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if c is None:
        c = bloch_dot(d, r)
    total = a * a + b * b
    diff = a * a - b * b
    return (a * b * (r - c * d) + (total * c + diff) / 2.0 * d) / ((total + diff * c) / 2.0)


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


def oracle_triple_closed_form(a, b1, b2, u, w, v, quality: float, prec: float) -> float:
    """The paper's closed form of P(a b1 b2 | x y1 y2) at u = u_x, w = w_{y1}, v = v_{y2}.

    Takes the raw (F, G), so an unphysical pair gives the negative
    probabilities the positivity scan reports.
    """
    uw = float(np.dot(u, w))
    wv = float(np.dot(w, v))
    uv = float(np.dot(u, v))
    return (
        (b1 * prec / 8.0) * (b2 * wv - a * uw)
        + (quality / 8.0) * (1.0 - a * b2 * uv)
        + ((1.0 - quality) / 8.0) * (1.0 - a * b2 * uw * wv)
    )


def triple_probability_oracle(a, b1, b2, x, y1, y2, geometry, strength) -> float:
    """P(a b1 b2 | x y1 y2) by steering, the conditional weak channel and a strong projection."""
    rho = steered_state(geometry.alice[x], a)
    conditional = weak_conditional(rho, geometry.first[y1], strength, b1)
    pi_plus, pi_minus = projectors(geometry.second[y2])
    pi_b2 = {1: pi_plus, -1: pi_minus}[b2]  # any other b2 is a KeyError
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


def density_from_pauli(pauli) -> np.ndarray:
    """The 4x4 state sum_ij R_ij sigma_i (x) sigma_j / 4 of Pauli coefficients R."""
    basis = np.stack([IDENTITY_2, *PAULI_XYZ])
    return np.einsum("ij,iab,jcd->acbd", pauli, basis, basis).reshape(4, 4) / 4.0


def enumerate_joint(cfg) -> dict:
    """Brute-force oracle for the joint distribution over (x, y_1..y_n, a, b_1..b_n).

    Steers Bob's qubit with np.kron projectors of Alice's outcome, then
    applies the complex conditional weak channel branch by branch.
    Exponential in the number of stages; for cross-checking
    montecarlo.analytic_joint only.
    """
    n_stages = len(cfg.stages)
    strengths = [stage.strength for stage in cfg.stages]
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
                quality = stage.strength.quality_factor
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


# --- per-cell scan oracles ----------------------------------------------------------
# The triple scan cell by cell: each input-averaged map as the sum of the
# conditional stage maps over inputs and outcomes, propagate over the
# broadcast (F1, F2) grid, one 4x4 matmul per cell, and each CHSH from
# u T w^T on the 3x3 block, two 3x3 matmuls per state.  The scan tests
# require the direct maps, the stage-one GEMM, the row-stack propagation and
# the one-matmul CHSH to agree with them bit for bit.


def oracle_bob_maps(quality_factors, bob_dirs, bias: float = 0.5) -> np.ndarray:
    """Input-averaged Bob-index maps as the bias-weighted sum of _stage_maps over inputs and outcomes: (..., 4, 4)."""
    per_input = _stage_maps(quality_factors, 0.0, bob_dirs).sum(axis=-3)
    return (1.0 - bias) * per_input[..., 0, :, :] + bias * per_input[..., 1, :, :]


def oracle_chsh_values(pauli, alice_dirs, bob_dirs, precision) -> np.ndarray:
    """G (u T w^T) per state, T its 3x3 block, summed E00 + E01 + E10 - E11; states and G broadcast."""
    u = np.stack([d.vector for d in alice_dirs])
    w = np.stack([d.vector for d in bob_dirs])
    values = np.asarray(precision, dtype=float)[..., None, None] * (u @ np.asarray(pauli)[..., 1:, 1:] @ w.T)
    return values[..., 0, 0] + values[..., 0, 1] + values[..., 1, 0] - values[..., 1, 1]


def oracle_triple_scan(f1_grid, f2_grid) -> tuple[list, TripleScanReport]:
    """(I1, I2, I3) over the (F1, F2) grid, F1 along the rows, and the report of its best cell."""
    f1 = np.asarray(f1_grid, dtype=float)
    f2 = np.asarray(f2_grid, dtype=float)
    alice, bob = tsirelson_alice(), tsirelson_bob()
    g1 = np.sqrt((1.0 - f1) * (1.0 + f1))[:, None]
    g2 = np.sqrt((1.0 - f2) * (1.0 + f2))[None, :]
    maps = [oracle_bob_maps(f1[:, None], bob), oracle_bob_maps(f2[None, :], bob)]
    states = propagate(pauli_coefficients(singlet()), maps)
    values = np.broadcast_arrays(
        oracle_chsh_values(states[0], alice, bob, g1),
        oracle_chsh_values(states[1], alice, bob, g2),
        oracle_chsh_values(states[2], alice, bob, 1.0),
    )
    scores = np.minimum(np.minimum(values[0], values[1]), values[2])
    row, col = np.unravel_index(int(np.argmax(scores)), scores.shape)
    report = TripleScanReport(
        best_quality_factors=(float(f1[row]), float(f2[col])),
        best_values=tuple(float(v[row, col]) for v in values),
        max_min_chsh=float(scores[row, col]),
        cells=f1.size * f2.size,
    )
    return values, report


# --- per-node pointer oracles -------------------------------------------------------
# The node-by-node constructions that pointer.py replaced with per-interval
# ones, and with upper halves mirrored onto the lower; the per-line CSV it
# replaced with one formatted once per distinct value.  The pointer tests
# require the two to agree bit for bit.


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


def _oracle_positions(radius_cells: int, grid_spacing: float) -> np.ndarray:
    """Every node (j - M + 1/2) h, j = 0 .. 2M-1."""
    j = np.arange(2 * radius_cells, dtype=float)
    return (j - radius_cells + 0.5) * grid_spacing


def oracle_make_square(half_width: float, grid_spacing: float) -> PointerState:
    """Square pointer built on every node by a mask, not from its upper half."""
    radius_cells = math.ceil(half_width / grid_spacing) + round(1.0 / grid_spacing)
    q = _oracle_positions(radius_cells, grid_spacing)
    return _normalized_state(np.where(np.abs(q) < half_width, 1.0, 0.0), grid_spacing)


def oracle_make_gaussian(width: float, grid_spacing: float) -> PointerState:
    """Gaussian pointer evaluated at every node, not mirrored from its upper half."""
    q = _oracle_positions(math.ceil(8.0 * width / grid_spacing), grid_spacing)
    return _normalized_state(np.exp(-(q * q) / (4.0 * width * width)), grid_spacing)


def oracle_make_exponential(scale: float, grid_spacing: float) -> PointerState:
    """Exponential pointer evaluated at every node, not mirrored from its upper half."""
    q = _oracle_positions(math.ceil(max(40.0 * scale, 2.0) / grid_spacing), grid_spacing)
    return _normalized_state(np.exp(-np.abs(q) / (2.0 * scale)), grid_spacing)


# --- per-value closed forms -----------------------------------------------------
# each family's (F, G) of one parameter value in Python floats, after that
# value's own checks in its builder's order: the oracles that the closed
# forms over a whole array of values must match bit for bit, refusal for
# refusal


def _oracle_unit_strength(fq: float, gp: float) -> MeasurementStrength:
    """The (F, G) gate on one pair, decided in Python floats.

    F, then G, must lie within 1e-9 of [0, 1] (nan is refused); both
    are clamped to [0, 1], and the clamped F^2 + G^2 may exceed 1 by at
    most 1e-14.  An accepted pair that MeasurementStrength refuses or
    moves fails here, so the oracle never borrows the gate's refusal.
    """
    for name, value in (("quality factor", fq), ("precision", gp)):
        if not -1e-9 <= value <= 1.0 + 1e-9:
            raise InvalidStateError(f"{name} {float(value)!r} outside [0, 1] beyond tolerance")
    fq, gp = min(1.0, max(0.0, fq)), min(1.0, max(0.0, gp))
    circle = fq * fq + gp * gp
    if circle > 1.0 + 1e-14:
        raise PhysicalityError(f"unphysical strength: F^2 + G^2 = {circle!r} > 1")
    try:
        strength = MeasurementStrength(fq, gp)
    except ValueError as refused:
        raise AssertionError(f"the gate refuses ({fq!r}, {gp!r}), which the oracle accepts") from refused
    assert (strength.quality_factor, strength.precision) == (fq, gp), (fq, gp)
    return strength


def _radius_cells(radius: float, grid_spacing: float) -> int:
    """ceil(radius / spacing), clipped so a radius past the node cap never overflows."""
    return math.ceil(min(pointer.MAX_POINTER_NODES, radius / grid_spacing))


def _oracle_check_node_count(nodes: int, name: str, value: float) -> None:
    if nodes > pointer.MAX_POINTER_NODES:
        raise _node_cap_error(nodes, name, value, 0)


def _oracle_check_resolved(name, value, exponent, divisor, grid_spacing) -> None:
    try:
        peak = math.exp(-exponent / divisor)
    except ZeroDivisionError:
        peak = 0.0
    if not 2.0 * (peak * peak) * grid_spacing > 0.0:
        raise _too_narrow(name, value, grid_spacing, "the pointer's norm underflows to 0")


def _oracle_check_normalizable(name, value, exponent, grid_spacing) -> None:
    peak = float(np.exp(exponent))  # the builder's own exp, not math.exp
    square = peak * peak
    if square >= pointer._TINY_SQUARE:
        return
    norm = math.sqrt((square + square) * grid_spacing)
    share = peak / norm if norm > 0.0 else math.nan
    if not abs((share * share + share * share) * grid_spacing - 1.0) <= pointer._NORM_TOL:
        raise _too_narrow(name, value, grid_spacing, "the pointer's norm is too small to normalize")


def _oracle_nodes_below(bound: float, radius_cells: int, grid_spacing: float) -> int:
    """Number of nodes (j + 1/2) h, j = 0 .. M-1, strictly below bound, settled on the node comparisons."""
    count = min(radius_cells, max(0, math.ceil(bound / grid_spacing - 0.5)))
    while count > 0 and not (count - 0.5) * grid_spacing < bound:
        count -= 1
    while count < radius_cells and (count + 0.5) * grid_spacing < bound:
        count += 1
    return count


def oracle_square_strength(half_width: float, grid_spacing: float) -> MeasurementStrength:
    if not half_width > 0:
        raise InvalidParameterError(f"half width must be positive, got {half_width}")
    cells = _cells_per_unit(grid_spacing)
    if grid_spacing > half_width / 50:
        raise InvalidParameterError(
            f"grid spacing {grid_spacing} too coarse for half width {half_width} (need <= width/50)"
        )
    radius_cells = _radius_cells(half_width, grid_spacing) + cells
    _oracle_check_node_count(2 * radius_cells, "square half width", half_width)
    inside = _oracle_nodes_below(half_width, radius_cells, grid_spacing)
    return _oracle_unit_strength(max(0, inside - cells) / inside, min(inside, cells) / inside)


def _oracle_gaussian_checks(width: float, grid_spacing: float) -> int:
    if not width > 0:
        raise InvalidParameterError(f"width must be positive, got {width}")
    _cells_per_unit(grid_spacing)
    radius_cells = _radius_cells(8.0 * width, grid_spacing)
    _oracle_check_node_count(2 * radius_cells, "gaussian width", width)
    nearest = 0.5 * grid_spacing
    _oracle_check_resolved("gaussian width", width, nearest * nearest, 4.0 * width * width, grid_spacing)
    _oracle_check_normalizable("gaussian width", width, nearest * nearest / -(4.0 * width * width), grid_spacing)
    return radius_cells


def _oracle_node_sum(density, start: int, stop: int, grid_spacing: float) -> float:
    """Sum of density(q) over the nodes q = (j + 1/2) h, j = start .. stop-1, one 1-D block of _BLOCK_NODES at a time."""
    total = 0.0
    for lo in range(start, stop, pointer._BLOCK_NODES):
        total += float(np.sum(density(np.arange(lo + 0.5, min(stop, lo + pointer._BLOCK_NODES)) * grid_spacing)))
    return total


def oracle_gaussian_strength(width: float, grid_spacing: float) -> MeasurementStrength:
    """make_gaussian's closed-form (F, G) summed for this width alone, each sum through _oracle_node_sum.

    The same node values, blocks and Poisson total as the batched sums,
    with no rows shared between widths.
    """
    radius_cells = _oracle_gaussian_checks(width, grid_spacing)
    cells = round(1.0 / grid_spacing)
    if radius_cells <= cells:
        return _oracle_unit_strength(0.0, 1.0)
    spread = 2.0 * width * width

    def density(q):
        return np.exp(-(q * q) / spread)

    if width < 8.0 * grid_spacing:
        total = _oracle_node_sum(density, 0, radius_cells, grid_spacing)
    else:
        reach = radius_cells * grid_spacing / (math.sqrt(2.0) * width)
        total = width / grid_spacing * math.sqrt(0.5 * math.pi) * (1.0 - math.erfc(reach))
    central = _oracle_node_sum(density, 0, cells, grid_spacing)
    inner = radius_cells - cells
    if inner <= cells:
        paired = _oracle_node_sum(density, 0, inner, grid_spacing)
    else:
        paired = total - _oracle_node_sum(density, inner, radius_cells, grid_spacing)
    return _oracle_unit_strength(math.exp(-1.0 / spread) * paired / total, central / total)


def oracle_exponential_strength(scale: float, grid_spacing: float) -> MeasurementStrength:
    if not scale > 0:
        raise InvalidParameterError(f"scale must be positive, got {scale}")
    cells = _cells_per_unit(grid_spacing)
    radius_cells = _radius_cells(max(40.0 * scale, 2.0), grid_spacing)
    _oracle_check_node_count(2 * radius_cells, "exponential scale", scale)
    _oracle_check_resolved("exponential scale", scale, 0.5 * grid_spacing, 2.0 * scale, grid_spacing)
    _oracle_check_normalizable("exponential scale", scale, 0.5 * grid_spacing / -(2.0 * scale), grid_spacing)
    step = grid_spacing / scale
    total = -math.expm1(-radius_cells * step)
    inside = cells * -math.expm1(-step) * math.exp(-(2.0 - grid_spacing) / (2.0 * scale))
    outside = math.exp(-1.0 / scale) * -math.expm1(-(radius_cells - 2 * cells) * step)
    return _oracle_unit_strength((inside + outside) / total, -math.expm1(-1.0 / scale) / total)


def oracle_frontier_strength(target: float, grid_spacing: float, worst: bool = False) -> MeasurementStrength:
    cells = _cells_per_unit(grid_spacing)
    if not 0.0 < target < 1.0:
        raise InvalidParameterError(f"target precision must lie in (0, 1), got {target}")
    ratio = (1.0 - target) / (1.0 + target)
    log_ratio = math.log(ratio)
    span = math.log(pointer.ENVELOPE_CUTOFF) / log_ratio if log_ratio < 0.0 else math.inf
    n_intervals = max(1, math.ceil(min(pointer.MAX_POINTER_NODES, span)))
    _oracle_check_node_count(2 * (2 * n_intervals + 1) * cells, "target precision", target)
    if worst:
        kept = n_intervals - n_intervals % 2
        total = 1.0 + 2.0 * ratio * ratio * -math.expm1(kept * log_ratio) / ((1.0 - ratio) * (1.0 + ratio))
        return _oracle_unit_strength(0.0, 1.0 / total)
    geometric = -math.expm1(n_intervals * log_ratio) / (1.0 - ratio)
    total = 1.0 + 2.0 * ratio * geometric
    return _oracle_unit_strength(2.0 * math.sqrt(ratio) * geometric / total, 1.0 / total)


def oracle_analytic_strength(precision: float) -> MeasurementStrength:
    """The frontier strength (sqrt(1 - G^2), G) of a precision in [0, 1]."""
    if not 0.0 <= precision <= 1.0:
        raise InvalidParameterError(f"precision must lie in [0, 1], got {precision}")
    return MeasurementStrength(math.sqrt(max(0.0, (1.0 - precision) * (1.0 + precision))), precision)


ORACLE_STRENGTHS = {
    "square": oracle_square_strength,
    "gaussian": oracle_gaussian_strength,
    "exponential": oracle_exponential_strength,
    "optimal": oracle_frontier_strength,
    "worst": lambda target, grid_spacing: oracle_frontier_strength(target, grid_spacing, worst=True),
}


def oracle_samples_to_csv(state: PointerState) -> str:
    """The q,phi dump with both floats of every line formatted, one string per line."""
    lines = ["q,phi"]
    for q, amp in zip(state.positions, state.samples):
        lines.append(f"{float(q)!r},{float(amp)!r}")
    return "\n".join(lines) + "\n"


def oracle_make_worst(base: PointerState) -> PointerState:
    """Worst pointer from its frontier base, zeroing odd-|n| nodes one by one."""
    n = _oracle_interval_indices(base.positions)
    samples = np.where(np.abs(n) % 2 == 1, 0.0, base.samples)
    return _oracle_normalized(samples, base.grid_spacing)


def quality_factor(state: PointerState) -> float:
    """A built grid's F: the overlap of its +1 and -1 displaced copies, read through strength_of."""
    return strength_of(state).quality_factor


def precision(state: PointerState) -> float:
    """A built grid's G: its mass on (-1, 1), read through strength_of."""
    return strength_of(state).precision


def oracle_precision(state: PointerState) -> float:
    """Mass on (-1, 1) by masking the whole grid, clamped as strength_of clamps G."""
    inside = np.abs(state.positions) < 1.0
    value = float(np.sum(state.samples[inside] ** 2) * state.grid_spacing)
    return min(1.0, max(0.0, value))


# --- Monte Carlo tally, joint and sampling oracles -------------------------------------
# The per-cell mask loop, np.unique count and key-by-key joint that
# montecarlo.py's outcome table and joint must equal; a whole-run
# sampler of actual pointer readings on grids, which the tests fit to
# analytic_joint as montecarlo.run_chain's counts are fitted; and the
# chain rule on the joint with a split walk drawn a chunk of cells at a
# time, which run_chain's probabilities and bytes must equal.


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
    """The propagated joint read out key by key over nested itertools loops.

    Alice's outcome steers the initial Pauli coefficients row by row in
    Python floats before the stage maps, as bell's joint steers them.
    """
    n_stages = len(cfg.stages)
    maps = []
    for k, stage in enumerate(cfg.stages):
        quality, prec = strength_pair(stage.strength)
        stage_maps = _stage_maps(quality, prec, (stage.dir0, stage.dir1))
        maps.append(stage_maps.reshape((1, 1) * k + (2, 2) + (1, 1) * (n_stages - 1 - k) + (4, 4)))
    pauli = pauli_coefficients(cfg.initial_state).tolist()
    u = [cfg.alice_dir0.vector.tolist(), cfg.alice_dir1.vector.tolist()]
    branches = {}
    for x in (0, 1):
        # u_x.R_{1:,j} in Python floats, summed x, y, z in that order
        alice = [u[x][0] * pauli[1][j] + u[x][1] * pauli[2][j] + u[x][2] * pauli[3][j] for j in range(4)]
        for a_val in (1, -1):
            steered = [pauli[0][j] + a_val * alice[j] for j in range(4)]
            branches[x, a_val] = propagate(np.array([steered]), maps)[-1]  # (y1, b1, .., yn, bn, 1, 4)
    out = {}
    for x in (0, 1):
        for ys in itertools.product((0, 1), repeat=n_stages):
            p_inputs = 0.5
            for stage, y in zip(cfg.stages, ys):
                p_inputs *= stage.bias if y == 1 else 1.0 - stage.bias
            for a_val in (1, -1):
                for bs in itertools.product((1, -1), repeat=n_stages):
                    branch = tuple(i for y, b in zip(ys, bs) for i in (y, (1 - b) // 2))
                    out[(x, *ys, a_val, *bs)] = p_inputs * float(branches[x, a_val][branch][0, 0]) / 2.0
    return out


def assert_same_text(got: str, want: str) -> None:
    """got == want exactly; a failure names the lengths and the first differing line, not a diff of the texts."""
    if got == want:
        return
    got_lines = got.splitlines(keepends=True)
    want_lines = want.splitlines(keepends=True)
    line = next(
        (i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
        min(len(got_lines), len(want_lines)),
    )
    raise AssertionError(
        f"texts of {len(got)} and {len(want)} characters ({len(got_lines)} and {len(want_lines)} lines) "
        f"first differ at line {line + 1}: {got_lines[line : line + 1]!r} != {want_lines[line : line + 1]!r}"
    )


def oracle_reading_cdf(pointer: PointerState) -> np.ndarray:
    """Exact discrete CDF of phi(q)^2 over every node of the grid, ending in 1.0."""
    masses = pointer.samples**2 * pointer.grid_spacing
    cdf = np.cumsum(masses) / float(np.sum(masses))
    cdf[-1] = 1.0
    return cdf


def oracle_outcome_table(bits: list) -> np.ndarray:
    """Trial counts over the axes of bits, [x, y_1..y_n, a, b_1..b_n], each boolean or 0/1; index 1 is true."""
    code = np.zeros(len(bits[0]), dtype=np.intp)
    for bit in bits:
        code = code * 2 + bit
    return np.bincount(code, minlength=2 ** len(bits)).reshape((2,) * len(bits))


def oracle_alice_steering(cfg) -> tuple[np.ndarray, np.ndarray]:
    """P(a=+1|x), shaped (2,), and Bob's steered Bloch vectors, shaped (3, x, a_index), a_index 0 a = +1.

    From the complex initial state: Alice's projector on the first qubit,
    then Bob's reduced state, normalized.
    """
    rho = as_density(cfg.initial_state, 4)
    p_plus = np.zeros(2)
    steered = np.zeros((3, 2, 2))
    for x, direction in enumerate((cfg.alice_dir0, cfg.alice_dir1)):
        for a_index, projector in enumerate(projectors(direction)):
            branch = np.kron(projector, IDENTITY_2) @ rho @ np.kron(projector, IDENTITY_2)
            bob = branch.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
            weight = float(np.trace(bob).real)
            if a_index == 0:
                p_plus[x] = weight
            if weight > 0.0:
                steered[:, x, a_index] = [np.trace(bob @ s).real / weight for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
    return p_plus, steered


def oracle_run_chain(cfg, grids, trials: int, seed: int) -> EmpiricalReport:
    """A chain sampled trial by trial from actual pointer readings on grids.

    grids holds one pointer grid per stage.  Every block is drawn in
    stream order from one generator; each reading is a node drawn by
    inverse CDF over the whole grid, displaced by +-1, its sign the
    outcome, and it collapses the trial's Bloch vector through K_q.
    """
    assert len(grids) == len(cfg.stages)
    rng = np.random.Generator(np.random.Philox(key=seed))

    x_bits = (rng.random(trials) < 0.5).astype(np.int8)
    alice_uniform = rng.random(trials)
    p_plus_by_x, steered = oracle_alice_steering(cfg)
    a = np.where(alice_uniform < p_plus_by_x[x_bits], 1, -1).astype(np.int8)
    a_index = ((1 - a) // 2).astype(np.int8)
    bloch = steered[:, x_bits, a_index].T  # (trials, 3)

    stage_inputs = []
    stage_outcomes = []
    for stage, pointer in zip(cfg.stages, grids):
        y = (rng.random(trials) < stage.bias).astype(np.int8)
        branch_uniform = rng.random(trials)
        position_uniform = rng.random(trials)

        cells = round(1.0 / pointer.grid_spacing)
        samples = pointer.samples

        directions = np.stack([stage.dir0.vector, stage.dir1.vector])[y]
        p_plus = (1.0 + bloch_dot(directions.T, bloch.T)) / 2.0
        shifts = np.where(branch_uniform < p_plus, 1, -1).astype(np.int64)
        idx = np.searchsorted(oracle_reading_cdf(pointer), position_uniform, side="right")
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

    bits = [x_bits, *stage_inputs, a > 0, *(b > 0 for b in stage_outcomes)]
    per_bob, outcome_counts = _reports(oracle_outcome_table(bits))
    return EmpiricalReport(_config_digest(cfg), seed, trials, per_bob, outcome_counts)


def oracle_chain_rule(cfg) -> list:
    """The probability of index 1 at every split of run_chain's walk, from the key-by-key joint.

    The walk reads the bits (x, a, y_1, b_1, .., y_n, b_n), index 1 being
    input 1 or outcome +1.  Split j's entry for prefix cell c, the bits
    before it read as a binary number, is the marginal of c with bit j set
    over the marginal of c: the chain rule.  NaN where c has mass at most
    ZERO_MASS, a prefix no trial reaches.
    """
    n_stages = len(cfg.stages)
    n_bits = 2 * n_stages + 2
    walk = np.zeros((2,) * n_bits)
    for (x, *rest), p in oracle_analytic_joint(cfg).items():
        ys, a_val, bs = rest[:n_stages], rest[n_stages], rest[n_stages + 1 :]
        walk[(x, (1 + a_val) // 2, *(v for y, b in zip(ys, bs) for v in (y, (1 + b) // 2)))] = p
    steps = []
    for j in range(n_bits):
        marginal = walk.sum(axis=tuple(range(j + 1, n_bits))).reshape(-1, 2)
        prefix = marginal.sum(axis=1)
        reached = prefix > ZERO_MASS
        steps.append(np.where(reached, marginal[:, 1] / np.where(reached, prefix, 1.0), math.nan))
    return steps


def oracle_split_run(cfg, trials: int, seed: int, chunk: int, steps: list) -> EmpiricalReport:
    """A run drawn by binomial splits in walk order, chunk cells a draw, tallied trial by trial.

    steps holds each split's probability of index 1 per prefix cell (a
    scalar applies to every cell).  Each split's cells are drawn chunk at
    a time from one Philox generator, p read as 0 where a cell holds no
    count.  The last counts are expanded into one row of walk bits per
    trial and tallied by the mask loops.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    counts = np.array([trials])
    for step in steps:
        p = np.broadcast_to(np.asarray(step, dtype=float), counts.shape)
        ones = []
        for start in range(0, counts.size, chunk):
            n = counts[start : start + chunk]
            ones.append(rng.binomial(n, np.where(n > 0, p[start : start + chunk], 0.0)))
        ones = np.concatenate(ones)
        counts = np.stack([counts - ones, ones], axis=-1).ravel()
    n_bits = 2 * len(cfg.stages) + 2
    cells = np.repeat(np.arange(counts.size), counts)
    bits = ((cells[:, None] >> np.arange(n_bits - 1, -1, -1)) & 1).astype(np.int8)  # (trials, walk bit)
    x_bits, a = bits[:, 0], 2 * bits[:, 1] - 1
    stage_inputs = list(bits[:, 2::2].T)
    stage_outcomes = [2 * b - 1 for b in bits[:, 3::2].T]
    per_bob = oracle_bob_reports(x_bits, a, stage_inputs, stage_outcomes)
    outcome_counts = oracle_count_outcomes(x_bits, a, stage_inputs, stage_outcomes)
    return EmpiricalReport(_config_digest(cfg), seed, trials, per_bob, outcome_counts)
