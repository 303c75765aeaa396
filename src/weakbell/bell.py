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

No code here evaluates that formula: it is what the chain's joint gives.
_propagated_joint builds a chain's exact joint over (x, a, y_1, b_1, ..,
y_n, b_n) from raw stages (F, G, directions, bias), and montecarlo's
run_chain and analytic_joint read the joint of a configured chain
(_chain_joint).  The tests read the singlet chain's joint directly: 8
times one cell is the probability above, and the tangent cells check
positivity against the printed formula (conftest.oracle_triple_closed_form).

Chain states are carried as real 4x4 Pauli coefficients
R_ij = tr(rho sigma_i (x) sigma_j), sigma_0 = I: R_00 = 1, Alice's Bloch
vector fills column 0, Bob's fills row 0, and the correlation tensor T
fills the 3x3 block (T = -I for the singlet).  An input-averaged Bob
stage acts on Bob's index alone, as the real map

    M = diag(1, F I + (1-F) sum_y r_y d_y d_y^T),    R -> R M^T,

where d_y are the stage's directions and r_y its input weights.
Averaging the state first is exact because every stage map is linear in
the state.  _bob_maps builds M directly, without the conditional maps
it averages: each of their entries is half of M's, and x/2 + x/2 is x
whenever x/2 is exact, so the direct form holds the same bits for every
F a scan can take (see _bob_maps).  A correlator is E_xy = G u_x^T T w_y,
so CHSH is G (E00 + E01 + E10 - E11), one matmul over a stack of states
by a (16, 4) kernel that each scan builds once.  propagate applies the
stage maps to a stack of states, or of rows, as R -> R M^T acts row by
row: the scans take the singlet's one state through the rows of all
their first-stage maps in one GEMM, and the triple scan's second stage
is one matmul per F2 on the rows of all F1 states, by each (symmetric)
map as stored.  The scans and the
joint go through it.  A complex 4x4 density appears only where a state
enters a chain (singlet or a given initial state), through
pauli_coefficients.  The tests also check the joint and the chain
against the paper's complex steering, conditional channel and branch
enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvalidStateError, NodeCapError
from .channel import DIR_X, DIR_Z, IDENTITY_2, PAULI_XYZ, Direction, as_density, bloch_dot, strength_pair
from .pointer import DEFAULT_GRID_SPACING, MeasurementStrength, _family_strengths, _first_refused, _node_cap_error, _unit_pairs

_SQ2 = math.sqrt(2.0)
_SQRT_PI_2 = 0.5 * math.sqrt(math.pi)
# Winitzki's erfinv approximation constant, and a bound on _erfinv's Newton
# steps (at most 5 taken on 27,000 targets from 1e-300 to 1 - 2^-53)
_WINITZKI_A = 0.147
_ERFINV_MAX_STEPS = 8
# targets whose chain stacks double_violation_curve holds at once: (n, 4, 4) maps and states
# and the (n, 2, 3, 3) per-input blocks of the maps stay a few MB however long the grid;
# double_curve_to_csv formats as many rows a text block
_TARGET_BLOCK = 2**12
# Hermiticity, trace and positivity tolerance of an initial chain state
_STATE_TOL = 1e-9
# most Bob stages a chain may have: its joint holds 4 * 4^n cells, and
# run_chain at 1e6 trials peaks near 150 MB at 8 stages, twice that at 9
MAX_CHAIN_STAGES = 8
# sigma_0 = I, sigma_1..3 = X, Y, Z: the basis of the Pauli coefficients
_PAULI = np.stack([IDENTITY_2, *PAULI_XYZ])


def singlet() -> np.ndarray:
    """Projector onto (|ud> - |du>)/sqrt(2); correlations are -u.v."""
    psi = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / _SQ2
    return np.outer(psi, psi.conj())


# --- chain configuration ---------------------------------------------------


@dataclass(frozen=True)
class BobStage:
    """One Bob: directions for inputs 0/1, strength (F, G), input bias.

    bias is the probability of receiving input 1.  The strength is a
    MeasurementStrength; a pointer grid is refused with
    InvalidParameterError, and pointer.strength_of(state) gives its (F, G).
    """

    dir0: Direction
    dir1: Direction
    strength: MeasurementStrength
    bias: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.bias <= 1.0:
            raise InvalidParameterError(f"input bias must lie in [0, 1], got {self.bias}")
        strength_pair(self.strength)  # refuses anything but a MeasurementStrength


@dataclass(frozen=True)
class BellChainConfig:
    """Alice's two directions plus the ordered Bob stages and initial state.

    initial_state defaults to the singlet; a given one must be a density
    matrix: Hermitian, of unit trace and positive semidefinite, each
    within 1e-9.  A chain has at most MAX_CHAIN_STAGES stages.
    """

    alice_dir0: Direction
    alice_dir1: Direction
    stages: tuple[BobStage, ...]
    initial_state: np.ndarray | None = None

    def __post_init__(self):
        if not self.stages:
            raise InvalidParameterError("a Bell chain needs at least one Bob stage")
        object.__setattr__(self, "stages", tuple(self.stages))
        if len(self.stages) > MAX_CHAIN_STAGES:
            raise InvalidParameterError(
                f"a Bell chain of {len(self.stages)} Bob stages is over the cap of {MAX_CHAIN_STAGES} stages"
            )
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
    terms cancel between the outcomes, so none is needed.  It is built
    directly as diag(1, (1-r) A_0 + r A_1), A_y = F I + (1-F) d_y d_y^T,
    and holds the bits of the sum of _stage_maps over both outcomes: that
    sum adds x/2 + x/2 for each entry x of A_y, which is x whenever x/2 is
    exact, its couplings 0 G (+-d_y) / 2 sum to +0, and its corner
    (1-r) + r rounds to 1 for every r in [0, 1].  The sum starts from +0,
    so it holds no -0 entry, and neither does A_y while F >= +0: the
    (F, G) gate clamps -0.0 to 0.0.
    Only an entry that is a subnormal with an odd last bit rounds on
    halving; there the two differ by at most 2^-1074 an input, except at
    r = 1/2, where both halve it once more to the same bits.
    """
    d = np.stack([direction.vector for direction in bob_dirs])  # (input, 3)
    quality = np.asarray(quality_factors, dtype=float)[..., None, None, None]
    per_input = quality * np.eye(3) + (1.0 - quality) * (d[:, :, None] * d[:, None, :])  # (..., input, 3, 3)
    maps = np.zeros(quality.shape[:-3] + (4, 4))
    maps[..., 0, 0] = 1.0
    maps[..., 1:, 1:] = (1.0 - bias) * per_input[..., 0, :, :] + bias * per_input[..., 1, :, :]
    return maps


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


def _first_stage(pauli, maps) -> np.ndarray:
    """States R M_k^T of one (4, 4) state after each map of an (n, 4, 4) stack: (n, 4, 4).

    One propagate call, and so one GEMM, takes the state through the
    4 n rows of all the maps at once; each block of four columns of the
    (4, 4 n) result is one state.
    """
    return propagate(pauli, [maps.reshape(-1, 4)])[-1].reshape(4, -1, 4).swapaxes(0, 1)


def _propagated_joint(pauli, alice_dirs, stages) -> np.ndarray:
    """A chain's exact joint over (x, a, y_1, b_1, .., y_n, b_n), index 1 for input 1 or outcome +1.

    pauli holds the initial state's Pauli coefficients R, alice_dirs
    Alice's (u_0, u_1), and each stage is a raw (F, G, (d_0, d_1), bias),
    so an unphysical (F, G) is propagated as given.  Alice's strong
    outcome a along u_x steers Bob's coefficients to R_{0,:} + a
    u_x.R_{1:,:}, summed x, y, z in that order; their 0 component is
    2 P(a|x).  One propagate call takes these through the conditional
    stage maps over the whole (y_k, b_k) branch grid, and a cell's weight
    is half its branch's 0 component.  Steering before the stages spares
    a small cell the cancellation of forming R'_00 + a u_x.R'_{1:,0}
    after them, ~1e-14 of the cell's value.
    """
    n_stages = len(stages)
    maps = []
    for k, (quality, prec, directions, _) in enumerate(stages):
        # outcome axis flipped, so index 1 is b = +1
        stage_maps = _stage_maps(quality, prec, directions)[:, ::-1]
        # stage k's (input, outcome) axes are axes 2k, 2k+1 of the branch grid
        maps.append(stage_maps.reshape((1, 1) * k + (2, 2) + (1, 1) * (n_stages - 1 - k) + (4, 4)))
    u = np.stack([direction.vector for direction in alice_dirs])
    alice = bloch_dot(u.T[:, :, None], pauli[1:, None, :])  # (x, 4): u_x.R_{1:,:}
    steered = pauli[0] + np.array([-1.0, 1.0])[:, None] * alice[:, None, :]  # (x, a, 4)
    states = steered.reshape((2, 2) + (1,) * (2 * n_stages) + (1, 4))  # one row state per (x, a)
    weight = propagate(states, maps)[-1][..., 0, 0]  # (x, a, y1, b1, .., yn, bn)
    # p(x) p(y_1) .. p(y_n) over the (x, y_1..y_n) grid, multiplied in stage order
    p_inputs = math.prod(np.ix_([0.5, 0.5], *([1.0 - bias, bias] for *_, bias in stages)))
    return p_inputs.reshape((2, 1) * (n_stages + 1)) * weight / 2.0


def _chain_joint(cfg: BellChainConfig) -> np.ndarray:
    """_propagated_joint of a configured chain, each stage's strength read as its (F, G)."""
    stages = [(*strength_pair(stage.strength), (stage.dir0, stage.dir1), stage.bias) for stage in cfg.stages]
    return _propagated_joint(pauli_coefficients(cfg.initial_state), (cfg.alice_dir0, cfg.alice_dir1), stages)


def _chsh_kernel(alice_dirs, bob_dirs) -> np.ndarray:
    """The (16, 4) matrix whose product with a state's 16 coefficients R_ac is (E00, E01, E10, E11).

    E_xy = sum_ac R_ac u_x[a] w_y[c], with u, w zero-padded to 4 entries.
    """
    u, w = (np.array([(0.0, *d.vector) for d in dirs]) for dirs in (alice_dirs, bob_dirs))
    return np.einsum("xa,yc->acxy", u, w).reshape(16, 4)


def _chsh_values(pauli, kernel, precision) -> np.ndarray:
    """CHSH at Bob precision G of Pauli-coefficient states; states and G broadcast together.

    kernel is _chsh_kernel of the settings, built once per scan: the
    correlators of every state are one matmul by it.  A strong Bob's
    G = 1.0 skips the four multiplies, as 1.0 * x is x to the bit; any
    other G multiplies each correlator, which rounds otherwise than
    G (E00 + E01 + E10 - E11).
    """
    e00, e01, e10, e11 = np.moveaxis(np.reshape(pauli, (*np.shape(pauli)[:-2], 16)) @ kernel, -1, 0)
    if np.ndim(precision) == 0 and precision == 1.0:
        return e00 + e01 + e10 - e11
    g = np.asarray(precision, dtype=float)
    return g * e00 + g * e01 + g * e10 - g * e11


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


# --- double and triple violation scans --------------------------------------


def _erfinv(g: float) -> float:
    """x with erf(x) = g, for g in (0, 1), by Newton's method.

    Above g = 0.5 it solves erfc(x) = 1 - g, whose subtraction is exact
    there; Newton on erf near 1 is ill-conditioned.  Winitzki's closed
    form (relative error < 2e-3), or g sqrt(pi)/2 where g^2 is too small
    to move 1 - g^2, starts the iteration, which stops after a step
    below 1e-12 relative: x then sits within math.erf's rounding, 2 ulps,
    of the root.
    """
    upper = g > 0.5
    q = 1.0 - g
    log_1_minus_g2 = math.log(q * (2.0 - q)) if upper else math.log1p(-g * g)
    b = 2.0 / (math.pi * _WINITZKI_A) + 0.5 * log_1_minus_g2
    x = math.sqrt(math.sqrt(b * b - log_1_minus_g2 / _WINITZKI_A) - b) or g * _SQRT_PI_2
    for _ in range(_ERFINV_MAX_STEPS):
        residual = (q - math.erfc(x)) if upper else (math.erf(x) - g)
        step = residual * _SQRT_PI_2 * math.exp(x * x)
        x -= step
        if abs(step) <= 1e-12 * x:
            break
    return x


def _target_strengths(family: str, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weak stage's (F, G) arrays over the target precisions, refusing the first refused target in grid order.

    A node-cap refusal names the target precision, not the family
    parameter it maps to: the refused value's index picks the target.
    """
    if family == "analytic":  # the frontier pair (sqrt(1 - G^2), G)
        return _unit_pairs(np.sqrt((1.0 - targets) * (1.0 + targets)), targets)
    if family == "gaussian":
        parameters = np.array([1.0 / (_SQ2 * _erfinv(target)) for target in targets.tolist()])
    elif family in ("optimal", "square"):
        with np.errstate(over="ignore"):  # a tiny target's half width overflows to inf, over the node cap
            parameters = targets if family == "optimal" else 1.0 / targets
    else:
        raise InvalidParameterError(f"unknown stage family {family!r}")
    try:
        return _family_strengths(family, parameters, DEFAULT_GRID_SPACING)
    except NodeCapError as exc:
        raise _node_cap_error(exc.nodes, "target precision", targets.item(exc.index), exc.index) from None


def double_violation_curve(family: str, precision_grid) -> list[tuple[float, float, float]]:
    """Rows (G, I1, I2) for a weak Bob of precision G followed by a strong Bob.

    Both Bobs use the Tsirelson settings with unbiased inputs; family
    selects how the weak stage's strength is produced ("analytic" for
    the frontier pair (sqrt(1-G^2), G), or the square, gaussian or
    optimal pointer matched to the target precision).  The (F, G) of
    every target come as two arrays, from pointer's closed forms with no
    grid built; the first target refused, in grid order, is refused.
    I1 is read from the singlet itself.  The states before the strong
    Bob are propagated and read _TARGET_BLOCK targets at a time, each
    block in one GEMM (_first_stage).  Reported G is the actual stage
    precision.
    """
    targets = np.fromiter(map(float, precision_grid), dtype=float)
    outside = ~((0.0 < targets) & (targets < 1.0))
    message = "precision grid values must lie in (0, 1), got {}"
    _first_refused([(outside, lambda k: InvalidParameterError(message.format(float(targets[k]))))])
    quality, precision = _target_strengths(family, targets)
    bob = tsirelson_bob()
    kernel = _chsh_kernel(tsirelson_alice(), bob)
    pauli = pauli_coefficients(singlet())
    first, second = np.empty_like(precision), np.empty_like(precision)
    for lo in range(0, precision.size, _TARGET_BLOCK):
        block = slice(lo, lo + _TARGET_BLOCK)
        first[block] = _chsh_values(pauli, kernel, precision[block])
        second[block] = _chsh_values(_first_stage(pauli, _bob_maps(quality[block], bob)), kernel, 1.0)
    return list(zip(precision.tolist(), first.tolist(), second.tolist()))


DOUBLE_CSV_HEADER = "G,I1,I2"


def double_curve_to_csv(rows):
    """The header line, then the lines G,I1,I2 of a sequence of rows, one text per _TARGET_BLOCK rows."""
    yield DOUBLE_CSV_HEADER + "\n"
    for lo in range(0, len(rows), _TARGET_BLOCK):
        yield "".join([f"{g!r},{first!r},{second!r}\n" for g, first, second in rows[lo : lo + _TARGET_BLOCK]])


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
    bob = tsirelson_bob()
    kernel = _chsh_kernel(tsirelson_alice(), bob)
    g1 = np.sqrt((1.0 - f1) * (1.0 + f1))[:, None]
    g2 = np.sqrt((1.0 - f2) * (1.0 + f2))
    pauli = pauli_coefficients(singlet())
    before_second = _first_stage(pauli, _bob_maps(f1, bob))
    # stage two takes the F1 states as one stack of 4 n1 rows: one matmul per F2.  The maps
    # are symmetric, so propagate, handed their transposed view, multiplies by each map as
    # stored: one BLAS call per F2, where a strided M^T takes numpy's slower loop
    before_third = propagate(before_second.reshape(-1, 4), [_bob_maps(f2, bob).swapaxes(-1, -2)])[-1]
    # F1 along the rows, F2 along the columns
    values = np.broadcast_arrays(
        _chsh_values(pauli, kernel, g1),
        _chsh_values(before_second[:, None], kernel, g2),
        _chsh_values(before_third.reshape(f2.size, f1.size, 4, 4), kernel, 1.0).T,
    )
    scores = np.minimum(np.minimum(values[0], values[1]), values[2])
    row, col = np.unravel_index(int(np.argmax(scores)), scores.shape)
    return TripleScanReport(
        best_quality_factors=(float(f1[row]), float(f2[col])),
        best_values=tuple(float(v[row, col]) for v in values),
        max_min_chsh=float(scores[row, col]),
        cells=cells,
    )
