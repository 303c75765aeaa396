"""The weak von Neumann measurement as a channel on spin-1/2 states.

A measurement along direction d with quality factor F and precision G
acts on a density matrix rho as

    unconditional:   rho -> F rho + (1-F) (pi+ rho pi+ + pi- rho pi-)
    outcome probs:   P(b) = G tr(pi_b rho) + (1-G)/2
    conditional:     rho -> F/2 rho + (1 + bG - F)/2 pi+ rho pi+
                               + (1 - bG - F)/2 pi- rho pi-   (unnormalized)

where pi+/- are the projectors along +/-d.  The conditional map is
positive exactly when F^2 + G^2 <= 1.  Per-reading collapse uses the
Kraus operator K_q = phi(q-1) pi+ + phi(q+1) pi-.

The functions taking plain 2x2 complex arrays are the reference forms
of the paper.  The simulation paths carry a qubit as its real Bloch
vector r, rho = (I + r.sigma)/2, and a pair as its Pauli coefficients
(see bell, whose stage maps are these channels on Bob's index).  In
that form the unconditional map is the linear map
r -> F r + (1-F) d (d.r), and the collapse through K = a pi+ + b pi-
has the closed form implemented by collapse_bloch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvalidStateError
from .pointer import MeasurementStrength, PointerState

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_XYZ = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class Direction:
    """Unit 3-vector selecting a spin observable d . sigma."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        norm = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if abs(norm - 1.0) > _UNIT_TOL:
            raise InvalidParameterError(f"direction must be a unit vector, |d| = {norm!r}")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @classmethod
    def from_vector(cls, v) -> "Direction":
        v = np.asarray(v, dtype=float)
        if v.shape != (3,):
            raise InvalidParameterError(f"direction needs 3 components, got shape {v.shape}")
        return cls(float(v[0]), float(v[1]), float(v[2]))


DIR_X = Direction(1.0, 0.0, 0.0)
DIR_Y = Direction(0.0, 1.0, 0.0)
DIR_Z = Direction(0.0, 0.0, 1.0)


def as_direction(d) -> Direction:
    return d if isinstance(d, Direction) else Direction.from_vector(d)


def spin_operator(d) -> np.ndarray:
    """Spin observable d . sigma for a direction d."""
    v = as_direction(d).vector
    return v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z


def projectors(d) -> tuple[np.ndarray, np.ndarray]:
    """Projectors (I +/- d.sigma)/2 onto the eigenstates along d."""
    s = spin_operator(d)
    return (IDENTITY_2 + s) / 2.0, (IDENTITY_2 - s) / 2.0


def as_density(rho, dim: int | None = None) -> np.ndarray:
    """Coerce a density-matrix argument to a complex square array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError(f"density matrix must be square, got shape {rho.shape}")
    if dim is not None and rho.shape[0] != dim:
        raise InvalidStateError(f"expected a {dim}x{dim} density matrix, got {rho.shape[0]}x{rho.shape[0]}")
    return rho


def strength_pair(strength) -> tuple[float, float]:
    """(quality factor, precision) from a MeasurementStrength or a PointerState."""
    if isinstance(strength, PointerState):
        from .pointer import strength_of

        strength = strength_of(strength)
    if not isinstance(strength, MeasurementStrength):
        raise InvalidParameterError(
            f"expected MeasurementStrength or PointerState, got {type(strength).__name__}"
        )
    return strength.quality_factor, strength.precision


def weak_unconditional(rho, d, quality_factor: float) -> np.ndarray:
    """Post-measurement state with the outcome discarded."""
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
    """Unnormalized post-measurement state given the digitized outcome.

    The trace of the result equals the outcome probability.  Requires a
    physical strength: outside the unit circle the map is not positive.
    """
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


def kraus_at_reading(pointer: PointerState, d, reading: float) -> np.ndarray:
    """Collapse operator K_q = phi(q-1) pi+ + phi(q+1) pi- at pointer reading q.

    Readings outside the pointer grid return the zero matrix (the
    truncated envelope carries no amplitude there).
    """
    pp, pm = projectors(d)
    return pointer.value_at(reading - 1.0) * pp + pointer.value_at(reading + 1.0) * pm


def bloch_dot(directions, bloch) -> np.ndarray:
    """d.r for (3, ...) arrays, summed d_x r_x + d_y r_y + d_z r_z in that order."""
    return directions[0] * bloch[0] + directions[1] * bloch[1] + directions[2] * bloch[2]


def collapse_bloch(bloch, directions, a, b, c=None) -> np.ndarray:
    """Normalized Bloch vectors after the Kraus operator K = a pi+ + b pi-.

    bloch and directions are component-first (3, ...) arrays, a and b
    the (...) arrays of real amplitudes, and c, when given, is
    bloch_dot(directions, bloch).  The collapsed state K rho K has trace
    N = ((a^2 + b^2) + (a^2 - b^2) c) / 2 and Bloch vector

        r' = (a b (r - c d) + ((a^2 + b^2) c + a^2 - b^2) / 2 d) / N,

    so K rho K / tr(K rho K) is formed without any 2x2 product.
    """
    r = np.asarray(bloch, dtype=float)
    d = np.asarray(directions, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if c is None:
        c = bloch_dot(d, r)
    a_sq = a * a
    b_sq = b * b
    total = a_sq + b_sq
    diff = a_sq - b_sq
    along = (total * c + diff) / 2.0
    out = c * d
    np.subtract(r, out, out=out)
    out *= a * b
    out += along * d
    out /= (total + diff * c) / 2.0
    return out


def decohere(rho, d) -> np.ndarray:
    """Project out coherences in the eigenbasis along d (idempotent)."""
    rho = as_density(rho, 2)
    pp, pm = projectors(d)
    return pp @ rho @ pp + pm @ rho @ pm


def distinguishability(strength) -> tuple[float, float]:
    """(sign-strategy success, trace-distance bound) for the displaced pointer states.

    Reading the sign of the position distinguishes the two displaced
    pointer states with probability (1+G)/2; no measurement can beat
    (1 + sqrt(1-F^2))/2.  Frontier pointers saturate the bound.
    """
    F, G = strength_pair(strength)
    return (1.0 + G) / 2.0, (1.0 + math.sqrt(max(0.0, 1.0 - F * F))) / 2.0
