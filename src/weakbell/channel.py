"""The weak von Neumann measurement as a channel on spin-1/2 states.

A measurement along direction d with quality factor F and precision G
acts on a density matrix rho as

    unconditional:   rho -> F rho + (1-F) (pi+ rho pi+ + pi- rho pi-)
    outcome probs:   P(b) = G tr(pi_b rho) + (1-G)/2
    conditional:     rho -> F/2 rho + (1 + bG - F)/2 pi+ rho pi+
                               + (1 - bG - F)/2 pi- rho pi-   (unnormalized)

where pi+/- project onto the eigenstates along +/-d.  The conditional
map is positive exactly when F^2 + G^2 <= 1.  A single reading q
collapses the state through the Kraus operator
K_q = phi(q-1) pi+ + phi(q+1) pi-; for a symmetric real pointer, the
collapses summed over the readings of sign b give the conditional map.

The package carries a qubit as its real Bloch vector r,
rho = (I + r.sigma)/2, and a pair as its Pauli coefficients (see bell,
whose stage maps are these channels on Bob's index).  In that form the
unconditional map is the linear map r -> F r + (1-F) d (d.r) and
outcome b has probability (1 + b G d.r)/2.  The 2x2 complex forms above
and the per-reading collapse are not computed here: the tests hold them
as the oracle these real forms are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvalidStateError
from .pointer import MeasurementStrength

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
        if not abs(norm - 1.0) <= _UNIT_TOL:
            raise InvalidParameterError(f"direction must be a unit vector, |d| = {norm!r}")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


DIR_X = Direction(1.0, 0.0, 0.0)
DIR_Z = Direction(0.0, 0.0, 1.0)


def as_density(rho, dim: int) -> np.ndarray:
    """Coerce a density-matrix argument to a complex dim x dim array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError(f"density matrix must be square, got shape {rho.shape}")
    if rho.shape[0] != dim:
        raise InvalidStateError(f"expected a {dim}x{dim} density matrix, got {rho.shape[0]}x{rho.shape[0]}")
    return rho


def strength_pair(strength) -> tuple[float, float]:
    """(quality factor, precision) of a MeasurementStrength; anything else is refused."""
    if not isinstance(strength, MeasurementStrength):
        raise InvalidParameterError(
            f"expected a MeasurementStrength (a pointer grid's is pointer.strength_of(state)), "
            f"got {type(strength).__name__}"
        )
    return strength.quality_factor, strength.precision


def bloch_dot(directions, bloch) -> np.ndarray:
    """d.r for (3, ...) arrays, summed d_x r_x + d_y r_y + d_z r_z in that order."""
    return directions[0] * bloch[0] + directions[1] * bloch[1] + directions[2] * bloch[2]


def distinguishability(strength) -> tuple[float, float]:
    """(sign-strategy success, trace-distance bound) for the displaced pointer states.

    Reading the sign of the position distinguishes the two displaced
    pointer states with probability (1+G)/2; no measurement can beat
    (1 + sqrt(1-F^2))/2.  Frontier pointers saturate the bound.
    """
    F, G = strength_pair(strength)
    return (1.0 + G) / 2.0, (1.0 + math.sqrt(max(0.0, 1.0 - F * F))) / 2.0
