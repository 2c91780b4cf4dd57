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
            if abs(norm - 1.0) > NORM_ATOL:
                raise ValueError(f"pure state norm {norm} deviates from 1")
        elif arr.shape == (4, 4):
            if np.max(np.abs(arr - arr.conj().T)) > HERMITIAN_ATOL:
                raise ValueError("density operator is not Hermitian")
            tr = np.trace(arr).real
            if abs(tr - 1.0) > NORM_ATOL:
                raise ValueError(f"density operator trace {tr} deviates from 1")
            if np.min(np.linalg.eigvalsh(arr)) < -PSD_ATOL:
                raise ValueError("density operator is not positive semidefinite")
        else:
            raise ValueError(f"state shape {arr.shape} is not (4,) or (4, 4)")

    @property
    def is_density(self) -> bool:
        return self.data.ndim == 2


def zero_state(mode: str = "pure") -> QuantumState:
    """The state |00> as a pure vector or density operator."""
    if mode == "pure":
        return QuantumState(np.eye(4)[0])
    if mode == "density":
        return QuantumState(np.diag([1.0, 0.0, 0.0, 0.0]))
    raise ValueError(f"unknown mode {mode!r}")


_I2 = np.eye(2, dtype=complex)
# SWAP exchanges the two qubits: SWAP . u . SWAP is u with its targets reversed.
_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def on_qubit(u: np.ndarray, qubit: int) -> np.ndarray:
    """Two-qubit operator applying the single-qubit ``u`` to ``qubit`` (1 or 2).

    Equals ``np.kron(u, 1)`` for qubit 1 and ``np.kron(1, u)`` for qubit 2,
    built by one broadcast product.
    """
    a, b = (u, _I2) if qubit == 1 else (_I2, u)
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
        return on_qubit(u, targets[0])
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
    if abs(total - 1.0) > PROB_SUM_ATOL:
        raise ValueError(f"probabilities sum to {total}, beyond tolerance")
    return p / total


def sample_outcomes(dist: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Multinomial outcome counts for ``shots`` measurements of ``dist``."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p = np.clip(np.asarray(dist, dtype=float), 0.0, None)
    total = p.sum()
    if not 0.0 < total < np.inf:
        raise ValueError(f"outcome weights sum to {total}, not a positive finite total")
    return rng.multinomial(shots, p / total)
