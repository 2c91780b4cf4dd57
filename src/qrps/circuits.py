"""Gate set and circuit constructions for the two-qubit deliberation circuit.

All two-qubit matrices use the basis order |00>, |01>, |10>, |11> with
qubit 1 as the leftmost bit.  In every operator product written here the
rightmost factor acts first on the state, and decomposition identities hold
up to a global phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qsim import QuantumState, on_qubit

# Flagged actions occupy the qubit-1 = 0 half of the basis: |00> and |01>.
FLAGGED = (0, 1)


def rotation(theta: float, phi: float) -> np.ndarray:
    """Resonant single-qubit rotation exp[i(theta/2)(X cos(phi) - Y sin(phi))].

    Closed form::

        [[cos(theta/2),              i e^{i phi} sin(theta/2)],
         [i e^{-i phi} sin(theta/2), cos(theta/2)            ]]
    """
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    e = np.exp(1j * phi)
    return np.array([[c, 1j * e * s], [1j * s / e, c]])


def rotation_z(theta: float) -> np.ndarray:
    """Z rotation exp[-i(theta/2) Z] = diag(e^{-i theta/2}, e^{+i theta/2})."""
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


def rz_pulse_identity(sign: int) -> list[tuple[float, float]]:
    """Three-pulse (theta, phi) realization of R_z(sign * pi/2).

    The ordered product of ``rotation`` over the returned list, rightmost
    entry applied first, equals ``rotation_z(sign * pi/2)``.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    middle = 0.0 if sign > 0 else math.pi
    return [(math.pi / 2, math.pi / 2), (math.pi / 2, middle), (math.pi / 2, 3 * math.pi / 2)]


def u_zz(theta: float) -> np.ndarray:
    """Ising-type interaction exp[i(theta/2) Z1 Z2], diagonal in the basis."""
    a = np.exp(0.5j * theta)
    return np.diag([a, a.conjugate(), a.conjugate(), a])


def product(factors: list[np.ndarray]) -> np.ndarray:
    """Ordered operator product; the rightmost factor acts first."""
    out = factors[-1]
    for f in reversed(factors[:-1]):
        out = f @ out
    return out


def cnot() -> np.ndarray:
    """Controlled-NOT (control qubit 1, target qubit 2) built from the native gate set.

    Evaluates e^{-i pi/4} R2(pi/2, 3pi/2) U_ZZ(pi/2) R2(pi/2, 0)
    R_{2,z}(pi/2) R_{1,z}(-pi/2); the result equals the canonical CNOT.
    """
    return np.exp(-0.25j * math.pi) * product(
        [
            on_qubit(rotation(math.pi / 2, 3 * math.pi / 2), 2),
            u_zz(math.pi / 2),
            on_qubit(rotation(math.pi / 2, 0), 2),
            on_qubit(rotation_z(math.pi / 2), 2),
            on_qubit(rotation_z(-math.pi / 2), 1),
        ]
    )


@dataclass(frozen=True)
class PreparationAngles:
    """Rotation angles (theta1, theta2) that prepare the stationary state."""

    theta1: float
    theta2: float


def angles_from_distribution(epsilon: float, a00_fraction: float) -> PreparationAngles:
    """Invert the angle maps: theta1 from epsilon, theta2 from a00/epsilon.

    ``a00_fraction`` is the conditional weight a00/epsilon of the first
    flagged action.  epsilon = 0 leaves theta2 undefined and is rejected.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon {epsilon} outside [0, 1]")
    if not 0.0 <= a00_fraction <= 1.0:
        raise ValueError(f"a00/epsilon {a00_fraction} outside [0, 1]")
    if epsilon == 0.0:
        raise ValueError("epsilon = 0 leaves theta2 undefined")
    theta1 = 2.0 * math.acos(math.sqrt(epsilon))
    theta2 = 2.0 * math.acos(math.sqrt(a00_fraction))
    return PreparationAngles(theta1, theta2)


@dataclass(frozen=True)
class StationaryDistribution:
    """Stationary probabilities over the four basis states.

    The flagged actions are ``FLAGGED``, |00> and |01>, so the flagged weight
    is epsilon = a00 + a01, and the ratio r_i = a00/a01 is defined whenever
    a01 > 0.
    """

    a: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.a, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)
        if arr.shape != (4,) or np.any(arr < 0):
            raise ValueError("a must be 4 nonnegative probabilities")
        if abs(arr.sum() - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {arr.sum()}")

    @property
    def epsilon(self) -> float:
        return float(self.a[0] + self.a[1])

    @property
    def a00(self) -> float:
        return float(self.a[0])

    @classmethod
    def from_epsilon_ratio(cls, epsilon: float, ratio: float) -> "StationaryDistribution":
        """Distribution with flagged weight epsilon split as a00/a01 = ratio,
        remainder split evenly over the unflagged states."""
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"epsilon {epsilon} outside (0, 1]")
        if ratio < 0:
            raise ValueError("ratio must be nonnegative")
        a01 = epsilon / (1.0 + ratio)
        a00 = epsilon - a01
        rest = (1.0 - epsilon) / 2.0
        return cls(np.array([a00, a01, rest, rest]))

    def angles(self) -> PreparationAngles:
        eps = self.epsilon
        return angles_from_distribution(eps, self.a00 / eps)


def prepare_alpha(angles: PreparationAngles) -> QuantumState:
    """Stationary state R1(theta1, pi/2) R2(theta2, pi/2) |00>.

    Each rotation acts on its own qubit's |0>, so the state is the product
    of the two rotations' first columns, validated once.
    """
    r1 = rotation(angles.theta1, math.pi / 2)
    r2 = rotation(angles.theta2, math.pi / 2)
    return QuantumState(np.outer(r1[:, 0], r2[:, 0]).ravel())


def ref_actions() -> np.ndarray:
    """Reflection over the flagged actions, R_{1,z}(-pi) = diag(i, i, -i, -i)."""
    return on_qubit(rotation_z(-math.pi), 1)


def ref_alpha(angles: PreparationAngles) -> np.ndarray:
    """Reflection over the stationary state, 2|alpha><alpha| - 1 up to phase.

    Evaluates R1(theta1 - pi, pi/2) R2(theta2 + pi/2, pi/2) U_CNOT
    R1(-theta1 - pi, pi/2) R2(-theta2 - pi/2, pi/2).
    """
    t1, t2 = angles.theta1, angles.theta2
    hp = math.pi / 2
    return product(
        [
            on_qubit(rotation(t1 - math.pi, hp), 1),
            on_qubit(rotation(t2 + hp, hp), 2),
            cnot(),
            on_qubit(rotation(-t1 - math.pi, hp), 1),
            on_qubit(rotation(-t2 - hp, hp), 2),
        ]
    )


def diffusion(angles: PreparationAngles) -> np.ndarray:
    """Single diffusion step, equal to ref_alpha . ref_actions up to phase.

    Evaluates the reduced product R2(theta2, pi/2) R1(theta1, pi/2)
    R_{2,z}(-pi/2) R_{1,z}(pi/2) U_ZZ(pi/2) R2(-theta2, pi/2) R1(theta1, pi/2);
    note the same sign of theta1 on both ends.
    """
    t1, t2 = angles.theta1, angles.theta2
    hp = math.pi / 2
    return product(
        [
            on_qubit(rotation(t2, hp), 2),
            on_qubit(rotation(t1, hp), 1),
            on_qubit(rotation_z(-hp), 2),
            on_qubit(rotation_z(hp), 1),
            u_zz(hp),
            on_qubit(rotation(-t2, hp), 2),
            on_qubit(rotation(t1, hp), 1),
        ]
    )


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max-entry distance between matrices minimized over a global phase.

    The aligning phase is taken from the largest-magnitude entry of a+ b,
    so equal-up-to-phase inputs give a distance at roundoff level.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    m = a.conj().T @ b if a.ndim == 2 else np.array([[np.vdot(a, b)]])
    idx = np.unravel_index(np.argmax(np.abs(m)), m.shape)
    z = m[idx]
    if abs(z) == 0:
        return float(np.max(np.abs(a - b)))
    lam = z.conjugate() / abs(z)
    return float(np.max(np.abs(a - lam * b)))
