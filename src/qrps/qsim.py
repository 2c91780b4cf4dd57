"""Minimal exact quantum simulation substrate for the two-qubit register.

The register is the two frequency-addressed ions of the deliberation
circuit.  States are immutable values: either a pure amplitude vector of
shape (4,) or a density operator of shape (4, 4).  Qubits are labeled 1 and
2, and qubit 1 is the leftmost (most significant) bit of a basis index, so
the basis order is |00>, |01>, |10>, |11>.

Unitaries are plain complex ndarrays acting on the register.  All operations
are pure functions of their inputs; stochastic operations take an explicit
numpy Generator.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

# Validation tolerances for state invariants.
NORM_ATOL = 1e-10
HERMITIAN_ATOL = 1e-12
PSD_ATOL = 1e-10
PROB_CLIP_ATOL = 1e-12
PROB_SUM_ATOL = 1e-9


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class QuantumState:
    """Pure state vector or density operator of the two-qubit register.

    ``data`` has shape ``(4,)`` for a pure state and ``(4, 4)`` for a
    density operator.  Instances are validated on construction and their
    arrays are marked read-only.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = _frozen(self.data)
        object.__setattr__(self, "data", arr)
        if arr.shape == (4,):
            norm = np.linalg.norm(arr)
            if not abs(norm - 1.0) <= NORM_ATOL:
                raise ValueError(f"pure state norm {norm} deviates from 1")
        elif arr.shape == (4, 4):
            if not np.max(np.abs(arr - arr.conj().T)) <= HERMITIAN_ATOL:
                raise ValueError("density operator is not Hermitian")
            tr = np.trace(arr).real
            if not abs(tr - 1.0) <= NORM_ATOL:
                raise ValueError(f"density operator trace {tr} deviates from 1")
            if np.min(np.linalg.eigvalsh(arr)) < -PSD_ATOL:
                raise ValueError("density operator is not positive semidefinite")
        else:
            raise ValueError(f"state shape {arr.shape} is not (4,) or (4, 4)")

    @property
    def is_density(self) -> bool:
        return self.data.ndim == 2


_I2 = np.eye(2, dtype=complex)
# SWAP exchanges the two qubits: SWAP . u . SWAP is u with its targets reversed.
_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two-qubit operator ``a`` (x) ``b``: ``a`` on qubit 1, ``b`` on qubit 2.

    Equals numpy's ``kron`` bit for bit, built by one broadcast product.
    """
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def embed_unitary(u: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """Embed a 1- or 2-qubit unitary into the two-qubit register.

    ``targets`` are qubit labels (1 or 2, qubit 1 = most significant bit),
    ordered so that ``targets[0]`` addresses the most significant bit of the
    small unitary's own index.
    """
    u = np.asarray(u, dtype=complex)
    m = len(targets)
    if u.shape != (2**m, 2**m):
        raise ValueError(f"unitary shape {u.shape} does not match {m} target(s)")
    if len(set(targets)) != m:
        raise ValueError("targets must be distinct")
    for q in targets:
        if q not in (1, 2):
            raise ValueError(f"target qubit {q} out of range 1..2")
    if m == 1:
        return kron2(u, _I2) if targets[0] == 1 else kron2(_I2, u)
    return u if targets[0] == 1 else _SWAP @ u @ _SWAP


def apply(state: QuantumState, u: np.ndarray, targets: tuple[int, ...] | None = None) -> QuantumState:
    """Apply a unitary to the given target qubits.

    With ``targets`` omitted the unitary must act on the whole register.
    Pure states map as psi -> U psi, density operators as rho -> U rho U+.
    """
    full = embed_unitary(u, (1, 2) if targets is None else tuple(targets))
    if state.is_density:
        return QuantumState(full @ state.data @ full.conj().T)
    return QuantumState(full @ state.data)


def probabilities(state: QuantumState) -> np.ndarray:
    """Computational-basis outcome probabilities of a state.

    Tiny negative entries (roundoff) are clamped to zero and the vector is
    renormalized; a total deviating from 1 by more than 1e-9 is an error.
    """
    if state.is_density:
        p = np.diag(state.data).real.copy()
    else:
        p = np.abs(state.data) ** 2
    if np.min(p) < -PROB_CLIP_ATOL:
        raise ValueError(f"negative probability {np.min(p)} beyond roundoff")
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if not abs(total - 1.0) <= PROB_SUM_ATOL:
        raise ValueError(f"probabilities sum to {total}, beyond tolerance")
    return p / total


def _check_count(name: str, value, minimum: int, error: type[ValueError] = ValueError, maximum: float = np.inf) -> None:
    """Reject a count ``name`` that is not an integer from ``minimum`` to ``maximum`` (a float, NaN or inf too)."""
    if not ((type(value) is int or isinstance(value, numbers.Integral))  # a plain int skips the slow ABC check
            and minimum <= value <= maximum):
        bound = f"in [{minimum}, {maximum}]" if maximum < np.inf else "nonnegative" if minimum == 0 else f">= {minimum}"
        raise error(f"{name} must be {bound} and an integer, got {value!r}")


def _check_range(name: str, value, low: float, high: float, ends: str = "[]", error: type[ValueError] = ValueError) -> None:
    """Reject a float ``name`` (NaN too) outside the interval from ``low`` to ``high``; ``ends`` holds its brackets,
    "[" or "]" for a closed end and "(" or ")" for an open one, as in ``epsilon must lie in (0, 1], got 0.0``."""
    if low < value < high:  # an interior value returns after this one comparison
        return
    if not (value == low and ends[0] == "[" or value == high and ends[1] == "]"):
        raise error(f"{name} must lie in {ends[0]}{low:g}, {high:g}{ends[1]}, got {value}")


def _check_weights(name: str, w: np.ndarray) -> None:
    """Reject weights ``name`` with an entry that is NaN, infinite or below -PROB_CLIP_ATOL."""
    if not all(-PROB_CLIP_ATOL <= x < np.inf for x in w.tolist()):  # written so that NaN fails
        raise ValueError(f"{name} must hold finite weights >= -{PROB_CLIP_ATOL}, got {w}")


def sample_outcomes(dist: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Multinomial outcome counts for ``shots`` measurements of ``dist``."""
    _check_count("shots", shots, 1)
    w = np.asarray(dist, dtype=float)
    p = np.clip(w, 0.0, None)
    total = p.sum()
    if not 0.0 < total < np.inf:
        raise ValueError(f"dist weights sum to {total}, not a positive finite total")
    _check_weights("dist", w)
    return rng.multinomial(shots, p / total)
