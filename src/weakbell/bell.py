"""One Alice, many sequential Bobs: steering, CHSH and double violations.

Alice holds one half of a singlet and measures strongly along u_x; a
chain of Bobs measures the other half, each with intermediate strength,
each ignorant of the others' inputs and outcomes.  The joint outcome
distribution for one weak Bob followed by a strong one is

    P(a b1 b2 | x y1 y2) =
        (b1 G / 8) (b2 w.v - a u.w)
      + (F / 8) (1 - a b2 u.v)
      + ((1-F) / 8) (1 - a b2 (u.w)(w.v))

with u = u_x, w = w_{y1}, v = v_{y2}.  The a-dependent terms carry the
singlet anti-correlation (a strong aligned pair gives b1 = -a).
Positivity of every outcome bounds the strength pair by the unit circle:
at the tangent geometry u=Z, w=-X, v=Z sin(t) - X cos(t), the outcome
(1,-1,1) has probability (1 - F sin(t) - G cos(t))/8, so F sin(t) +
G cos(t) <= 1 for every t.

Chain states are carried as real 4x4 Pauli coefficients
R_ij = tr(rho sigma_i (x) sigma_j), sigma_0 = I: R_00 = 1, Alice's Bloch
vector fills column 0, Bob's fills row 0, and the correlation tensor T
fills the 3x3 block (T = -I for the singlet).  An input-averaged Bob
stage acts on Bob's index alone, as the real map

    M = diag(1, F I + (1-F) sum_y r_y d_y d_y^T),    R -> R M^T,

where d_y are the stage's directions and r_y its input weights.
Averaging the state first is exact because every stage map is linear in
the state.  A correlator is E_xy = G u_x^T T w_y, so CHSH is
G (E00 + E01 + E10 - E11).  propagate applies the stage maps to whole
grids of chains at once; the scans and sequential_average_state all go
through it.  A complex 4x4 density appears only where a state enters or
leaves a chain (singlet, a given initial state, the state that
sequential_average_state returns), through pauli_coefficients and
density_from_pauli.  The tests check triple_probability and the chain
against the paper's complex steering and conditional channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvalidStateError
from .channel import DIR_X, DIR_Z, IDENTITY_2, PAULI_XYZ, Direction, as_density, strength_pair
from .pointer import MeasurementStrength, PointerState, _frontier_strength, make_gaussian, make_square, strength_of

_SQ2 = math.sqrt(2.0)
# Hermiticity, trace and positivity tolerance of an initial chain state
_STATE_TOL = 1e-9
# sigma_0 = I, sigma_1..3 = X, Y, Z: the basis of the Pauli coefficients
_PAULI = np.stack([IDENTITY_2, *PAULI_XYZ])


def singlet() -> np.ndarray:
    """Projector onto (|ud> - |du>)/sqrt(2); correlations are -u.v."""
    psi = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / _SQ2
    return np.outer(psi, psi.conj())


@dataclass(frozen=True)
class TripleGeometry:
    """Directions for Alice, the weak stage and the strong stage (inputs 0/1)."""

    alice: tuple[Direction, Direction]
    first: tuple[Direction, Direction]
    second: tuple[Direction, Direction]


def tangent_geometry(angle: float) -> TripleGeometry:
    """Geometry whose zero-probability outcome traces the unit-circle tangents."""
    return TripleGeometry(
        alice=(DIR_Z, DIR_X),
        first=(Direction(-1.0, 0.0, 0.0), DIR_Z),
        second=(
            Direction(-math.cos(angle), 0.0, math.sin(angle)),
            DIR_X,
        ),
    )


def _triple_formula(a, b1, b2, u, w, v, quality: float, prec: float) -> float:
    uw = float(np.dot(u, w))
    wv = float(np.dot(w, v))
    uv = float(np.dot(u, v))
    return (
        (b1 * prec / 8.0) * (b2 * wv - a * uw)
        + (quality / 8.0) * (1.0 - a * b2 * uv)
        + ((1.0 - quality) / 8.0) * (1.0 - a * b2 * uw * wv)
    )


def _check_outcomes_inputs(a, b1, b2, x, y1, y2):
    if any(o not in (1, -1) for o in (a, b1, b2)):
        raise InvalidParameterError(f"outcomes must be +/-1, got {(a, b1, b2)}")
    if any(i not in (0, 1) for i in (x, y1, y2)):
        raise InvalidParameterError(f"inputs must be 0/1, got {(x, y1, y2)}")


def triple_probability(a, b1, b2, x, y1, y2, geometry: TripleGeometry, strength) -> float:
    """P(a b1 b2 | x y1 y2) in closed form for the singlet scenario."""
    _check_outcomes_inputs(a, b1, b2, x, y1, y2)
    F, G = strength_pair(strength)
    u = geometry.alice[x].vector
    w = geometry.first[y1].vector
    v = geometry.second[y2].vector
    return _triple_formula(a, b1, b2, u, w, v, F, G)


def positivity_bound_scan(angle_grid, quality_factor: float, precision: float):
    """Rows (theta, min outcome probability, F sin(theta) + G cos(theta)).

    Evaluates the closed form directly, so deliberately unphysical
    (quality factor, precision) pairs are allowed; those produce a
    negative minimum at some angle.
    """
    angles = [float(t) for t in angle_grid]
    rows = []
    for angle in angles:
        geometry = tangent_geometry(angle)
        u = geometry.alice[0].vector
        w = geometry.first[0].vector
        v = geometry.second[0].vector
        probs = [
            _triple_formula(a, b1, b2, u, w, v, quality_factor, precision)
            for a in (1, -1)
            for b1 in (1, -1)
            for b2 in (1, -1)
        ]
        tangent_value = quality_factor * math.sin(angle) + precision * math.cos(angle)
        rows.append((angle, min(probs), tangent_value))
    return rows


# --- chain configuration ---------------------------------------------------


@dataclass(frozen=True)
class BobStage:
    """One Bob: directions for inputs 0/1, strength (or pointer), input bias.

    bias is the probability of receiving input 1.
    """

    dir0: Direction
    dir1: Direction
    strength: MeasurementStrength | PointerState
    bias: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.bias <= 1.0:
            raise InvalidParameterError(f"input bias must lie in [0, 1], got {self.bias}")
        strength_pair(self.strength)  # validates the type and physicality

    def resolved_strength(self) -> MeasurementStrength:
        return MeasurementStrength(*strength_pair(self.strength))


@dataclass(frozen=True)
class BellChainConfig:
    """Alice's two directions plus the ordered Bob stages and initial state.

    initial_state defaults to the singlet; a given one must be a density
    matrix: Hermitian, of unit trace and positive semidefinite, each
    within 1e-9.
    """

    alice_dir0: Direction
    alice_dir1: Direction
    stages: tuple[BobStage, ...]
    initial_state: np.ndarray | None = None

    def __post_init__(self):
        if not self.stages:
            raise InvalidParameterError("a Bell chain needs at least one Bob stage")
        object.__setattr__(self, "stages", tuple(self.stages))
        state = singlet() if self.initial_state is None else _checked_density(self.initial_state)
        state = state.copy()
        state.flags.writeable = False
        object.__setattr__(self, "initial_state", state)


def _checked_density(rho) -> np.ndarray:
    """A 4x4 initial state, refused unless it is a density matrix within _STATE_TOL."""
    rho = as_density(rho, 4)
    drift = float(np.max(np.abs(rho - rho.conj().T)))
    if not drift <= _STATE_TOL:
        raise InvalidStateError(f"initial state is not Hermitian: max |rho - rho^H| = {drift:.3e}")
    trace = float(np.trace(rho).real)
    if not abs(trace - 1.0) <= _STATE_TOL:
        raise InvalidStateError(f"initial state has trace {trace!r}, not 1")
    lowest = float(np.linalg.eigvalsh(rho)[0])
    if not lowest >= -_STATE_TOL:
        raise InvalidStateError(f"initial state is not positive semidefinite: eigenvalue {lowest:.3e}")
    return rho


def pauli_coefficients(rho) -> np.ndarray:
    """Real R_ij = tr(rho sigma_i (x) sigma_j) of a 4x4 two-qubit state."""
    blocks = as_density(rho, 4).reshape(2, 2, 2, 2)  # [a, c, b, d]: row (a c), column (b d)
    return np.einsum("acbd,iba,jdc->ij", blocks, _PAULI, _PAULI).real


def density_from_pauli(pauli) -> np.ndarray:
    """The 4x4 state sum_ij R_ij sigma_i (x) sigma_j / 4 of Pauli coefficients R."""
    return np.einsum("ij,iab,jcd->acbd", pauli, _PAULI, _PAULI).reshape(4, 4) / 4.0


def _stage_maps(quality_factors, precisions, bob_dirs) -> np.ndarray:
    """Conditional Bob-index maps C_{y,b} of a stage, shaped (..., input, outcome, 4, 4).

    C_{y,b} = (diag(1, F I + (1-F) d_y d_y^T) + b G (e_0 d_y^T + d_y e_0^T)) / 2
    is the conditional weak channel on Bob's coefficients (tr rho, tr rho sigma);
    outcome index 0 is b = +1, index 1 is b = -1.  Quality factors and
    precisions broadcast together into the leading axes.
    """
    d = np.stack([direction.vector for direction in bob_dirs])  # (input, 3)
    quality = np.asarray(quality_factors, dtype=float)[..., None, None, None, None]
    precision = np.asarray(precisions, dtype=float)[..., None, None, None]
    shape = np.broadcast_shapes(quality.shape[:-4], precision.shape[:-3]) + (2, 2, 4, 4)
    maps = np.zeros(shape)
    maps[..., 0, 0] = 0.5
    projector = d[:, None, :, None] * d[:, None, None, :]  # d_y d_y^T: (input, 1, 3, 3)
    maps[..., 1:, 1:] = (quality * np.eye(3) + (1.0 - quality) * projector) / 2.0
    coupling = precision * np.array([1.0, -1.0])[:, None] * d[:, None, :] / 2.0  # (..., input, outcome, 3)
    maps[..., 0, 1:] = coupling
    maps[..., 1:, 0] = coupling
    return maps


def _bob_maps(quality_factors, bob_dirs, bias: float = 0.5) -> np.ndarray:
    """Bob-index maps of input-averaged stages, one per quality factor: (..., 4, 4).

    The bias-weighted sum of the conditional maps over inputs and
    outcomes, diag(1, F I + (1-F) sum_y r_y d_y d_y^T); the precision
    terms cancel between the outcomes, so none is needed.
    """
    per_input = _stage_maps(quality_factors, 0.0, bob_dirs).sum(axis=-3)
    return (1.0 - bias) * per_input[..., 0, :, :] + bias * per_input[..., 1, :, :]


def propagate(pauli, maps) -> list[np.ndarray]:
    """Chain states before Bob_1 .. Bob_{k+1} for k stage maps, in Pauli coefficients.

    pauli is one (4, 4) state or a stack (..., 4, 4); each map is (4, 4)
    or a stack that broadcasts against the states, so one call
    propagates a whole grid of chains.  Stage k sends R to R M_k^T.
    """
    states = [np.asarray(pauli, dtype=float)]
    for bob_map in maps:
        states.append(states[-1] @ np.swapaxes(bob_map, -1, -2))
    return states


def _correlators(pauli, alice_dirs, bob_dirs) -> np.ndarray:
    """u_x^T T w_y for every (x, y), over the leading axes of the states: (..., 2, 2)."""
    u = np.stack([d.vector for d in alice_dirs])
    w = np.stack([d.vector for d in bob_dirs])
    return u @ np.asarray(pauli)[..., 1:, 1:] @ w.T


def _chsh_of(values) -> np.ndarray:
    return values[..., 0, 0] + values[..., 0, 1] + values[..., 1, 0] - values[..., 1, 1]


def _chsh_values(pauli, alice_dirs, bob_dirs, precision) -> np.ndarray:
    """CHSH at Bob precision G of Pauli-coefficient states; states and G broadcast together."""
    precision = np.asarray(precision, dtype=float)[..., None, None]
    return _chsh_of(precision * _correlators(pauli, alice_dirs, bob_dirs))


def correlation_table(state, alice_dirs, bob_dirs, precision: float = 1.0) -> np.ndarray:
    """E[x][y] = G tr(rho sigma_ux (x) sigma_wy) = G u_x^T T w_y on a two-qubit state: (2, 2)."""
    return precision * _correlators(pauli_coefficients(state), alice_dirs, bob_dirs)


def chsh(state, alice_dirs, bob_dirs, precision: float = 1.0) -> float:
    """CHSH combination E00 + E01 + E10 - E11 at Bob precision G."""
    return float(_chsh_of(correlation_table(state, alice_dirs, bob_dirs, precision)))


def sequential_average_state(cfg: BellChainConfig, n: int) -> np.ndarray:
    """State of Alice and Bob_n before their measurements, as a 4x4 density.

    Averages over the prior Bobs' inputs with their biases; exact by
    linearity of the stage maps, replacing the 2^(n-1)-branch sum
    with n-1 map applications.
    """
    if not 1 <= n <= len(cfg.stages) + 1:
        raise InvalidParameterError(f"stage index {n} outside 1..{len(cfg.stages) + 1}")
    if n == 1:
        return np.array(cfg.initial_state, dtype=complex)
    maps = [
        _bob_maps(stage.resolved_strength().quality_factor, (stage.dir0, stage.dir1), stage.bias)
        for stage in cfg.stages[: n - 1]
    ]
    return density_from_pauli(propagate(pauli_coefficients(cfg.initial_state), maps)[-1])


# --- named settings ---------------------------------------------------------


def tsirelson_alice() -> tuple[Direction, Direction]:
    """Alice's settings attaining the Tsirelson bound on the singlet: Z, X."""
    return DIR_Z, DIR_X


def tsirelson_bob() -> tuple[Direction, Direction]:
    """Bob's settings -(Z+X)/sqrt(2), (-Z+X)/sqrt(2)."""
    return (
        Direction(-1.0 / _SQ2, 0.0, -1.0 / _SQ2),
        Direction(1.0 / _SQ2, 0.0, -1.0 / _SQ2),
    )


def protocol_alice() -> tuple[Direction, Direction]:
    """Alice's settings in the biased-input protocol: -Z, X."""
    return Direction(0.0, 0.0, -1.0), DIR_X


def protocol_bob(angle: float) -> tuple[Direction, Direction]:
    """Bob_n's settings in the biased-input protocol: Z, cos(t) Z + sin(t) X."""
    return DIR_Z, Direction(math.sin(angle), 0.0, math.cos(angle))


# --- double and triple violation scans --------------------------------------


def _strength_for_target(family: str, target: float) -> MeasurementStrength:
    if family == "analytic":
        return MeasurementStrength.optimal(target)
    if family == "optimal":
        return MeasurementStrength(*_frontier_strength(target))
    if family == "square":
        return strength_of(make_square(1.0 / target))
    if family == "gaussian":
        from scipy.special import erfinv  # only this family loads scipy.special

        width = 1.0 / (_SQ2 * float(erfinv(target)))
        return strength_of(make_gaussian(width))
    raise InvalidParameterError(f"unknown stage family {family!r}")


def double_violation_curve(family: str, precision_grid) -> list[tuple[float, float, float]]:
    """Rows (G, I1, I2) for a weak Bob of precision G followed by a strong Bob.

    Both Bobs use the Tsirelson settings with unbiased inputs; family
    selects how the weak stage's strength is produced ("analytic" for
    the frontier pair (sqrt(1-G^2), G), a constructed square or gaussian
    pointer, or the optimal pointer's interval rows, matched to the
    target precision).
    Reported G is the actual stage precision.
    """
    targets = [float(target) for target in precision_grid]
    for target in targets:
        if not 0.0 < target < 1.0:
            raise InvalidParameterError(f"precision grid values must lie in (0, 1), got {target}")
    strengths = [_strength_for_target(family, target) for target in targets]
    quality = np.array([s.quality_factor for s in strengths])
    precision = np.array([s.precision for s in strengths])
    alice = tsirelson_alice()
    bob = tsirelson_bob()
    before_first, before_second = propagate(pauli_coefficients(singlet()), [_bob_maps(quality, bob)])
    first = _chsh_values(before_first, alice, bob, precision)
    second = _chsh_values(before_second, alice, bob, 1.0)
    return list(zip(precision.tolist(), first.tolist(), second.tolist()))


DOUBLE_CSV_HEADER = "G,I1,I2"


def double_curve_to_csv(rows) -> str:
    lines = [DOUBLE_CSV_HEADER]
    for g, first, second in rows:
        lines.append(f"{g!r},{first!r},{second!r}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TripleScanReport:
    """Best min(I1, I2, I3) over an (F1, F2) grid of frontier-pointer stages."""

    best_quality_factors: tuple[float, float]
    best_values: tuple[float, float, float]
    max_min_chsh: float
    cells: int

    def to_dict(self) -> dict:
        return {
            "best_F1": self.best_quality_factors[0],
            "best_F2": self.best_quality_factors[1],
            "best_I1": self.best_values[0],
            "best_I2": self.best_values[1],
            "best_I3": self.best_values[2],
            "max_min_chsh": self.max_min_chsh,
            "cells": self.cells,
        }


def unbiased_triple_scan(f1_grid, f2_grid) -> TripleScanReport:
    """Scan two weak frontier stages plus a strong third for a triple violation.

    All Bobs share the Tsirelson directions, inputs unbiased.  Reports
    the largest min(I1, I2, I3) found, the first such cell in row-major
    (F1, F2) order; no scanned cell is expected to exceed 2.
    """
    f1 = np.array([float(v) for v in f1_grid])
    f2 = np.array([float(v) for v in f2_grid])
    for value in (*f1.tolist(), *f2.tolist()):
        if not 0.0 < value < 1.0:
            raise InvalidParameterError(f"quality-factor grid values must lie in (0, 1), got {value}")
    cells = f1.size * f2.size
    if cells == 0:
        return TripleScanReport((0.0, 0.0), (0.0, 0.0, 0.0), -math.inf, 0)
    alice = tsirelson_alice()
    bob = tsirelson_bob()
    g1 = np.sqrt((1.0 - f1) * (1.0 + f1))[:, None]
    g2 = np.sqrt((1.0 - f2) * (1.0 + f2))[None, :]
    # F1 along the rows, F2 along the columns: states are (F1, F2, 4, 4)
    states = propagate(
        pauli_coefficients(singlet()),
        [_bob_maps(f1[:, None], bob), _bob_maps(f2[None, :], bob)],
    )
    values = np.broadcast_arrays(
        _chsh_values(states[0], alice, bob, g1),
        _chsh_values(states[1], alice, bob, g2),
        _chsh_values(states[2], alice, bob, 1.0),
    )
    scores = np.minimum(np.minimum(values[0], values[1]), values[2])
    row, col = np.unravel_index(int(np.argmax(scores)), scores.shape)
    return TripleScanReport(
        best_quality_factors=(float(f1[row]), float(f2[col])),
        best_values=tuple(float(v[row, col]) for v in values),
        max_min_chsh=float(scores[row, col]),
        cells=cells,
    )
