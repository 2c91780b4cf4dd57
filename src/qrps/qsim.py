"""Minimal exact quantum simulation substrate for small qubit registers.

States are immutable values: either a pure amplitude vector of length 2**n
or a density operator of shape (2**n, 2**n).  Qubits are labeled 1..n and
qubit 1 is the leftmost (most significant) bit of a basis index, so for two
qubits the basis order is |00>, |01>, |10>, |11>.

Unitaries are plain complex ndarrays acting on two-qubit registers, the
size of the deliberation circuit.  All operations are pure functions of
their inputs; stochastic operations take an explicit numpy Generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Validation tolerances for state invariants.
NORM_ATOL = 1e-10
HERMITIAN_ATOL = 1e-12
PSD_ATOL = 1e-10
UNITARY_ATOL = 1e-12
PROB_CLIP_ATOL = 1e-12
PROB_SUM_ATOL = 1e-9


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class QuantumState:
    """Pure state vector or density operator over ``n_qubits`` qubits.

    ``data`` has shape ``(2**n,)`` for a pure state and ``(2**n, 2**n)``
    for a density operator.  Instances are validated on construction and
    their arrays are marked read-only.
    """

    n_qubits: int
    data: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        dim = 2**self.n_qubits
        arr = _frozen(self.data)
        object.__setattr__(self, "data", arr)
        if arr.shape == (dim,):
            norm = np.linalg.norm(arr)
            if abs(norm - 1.0) > NORM_ATOL:
                raise ValueError(f"pure state norm {norm} deviates from 1")
        elif arr.shape == (dim, dim):
            if np.max(np.abs(arr - arr.conj().T)) > HERMITIAN_ATOL:
                raise ValueError("density operator is not Hermitian")
            tr = np.trace(arr).real
            if abs(tr - 1.0) > NORM_ATOL:
                raise ValueError(f"density operator trace {tr} deviates from 1")
            if np.min(np.linalg.eigvalsh(arr)) < -PSD_ATOL:
                raise ValueError("density operator is not positive semidefinite")
        else:
            raise ValueError(f"state shape {arr.shape} does not match {self.n_qubits} qubits")

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @property
    def is_density(self) -> bool:
        return self.data.ndim == 2

    def to_density(self) -> "QuantumState":
        """Return the density-operator form of this state."""
        if self.is_density:
            return self
        rho = np.outer(self.data, self.data.conj())
        return QuantumState(self.n_qubits, rho)


def zero_state(n_qubits: int, mode: str = "pure") -> QuantumState:
    """The all-zeros state |0...0> as a pure vector or density operator."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    dim = 2**n_qubits
    if mode == "pure":
        vec = np.zeros(dim, dtype=complex)
        vec[0] = 1.0
        return QuantumState(n_qubits, vec)
    if mode == "density":
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return QuantumState(n_qubits, rho)
    raise ValueError(f"unknown mode {mode!r}")


def is_unitary(u: np.ndarray, atol: float = UNITARY_ATOL) -> bool:
    u = np.asarray(u)
    return np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= atol


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


def embed_unitary(u: np.ndarray, targets: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Embed a 1- or 2-qubit unitary into the two-qubit register.

    ``targets`` are qubit labels (1-based, qubit 1 = most significant bit),
    ordered so that ``targets[0]`` addresses the most significant bit of the
    small unitary's own index.  Registers other than two qubits are rejected.
    """
    u = np.asarray(u, dtype=complex)
    m = len(targets)
    if u.shape != (2**m, 2**m):
        raise ValueError(f"unitary shape {u.shape} does not match {m} target(s)")
    if len(set(targets)) != m:
        raise ValueError("targets must be distinct")
    for q in targets:
        if not 1 <= q <= n_qubits:
            raise ValueError(f"target qubit {q} out of range 1..{n_qubits}")
    if n_qubits != 2:
        raise ValueError(f"only two-qubit registers are supported, got {n_qubits}")
    if m == 1:
        return on_qubit(u, targets[0])
    return u if targets[0] == 1 else _SWAP @ u @ _SWAP


def apply(state: QuantumState, u: np.ndarray, targets: tuple[int, ...] | None = None) -> QuantumState:
    """Apply a unitary to the given target qubits.

    With ``targets`` omitted the unitary must act on the whole register.
    Pure states map as psi -> U psi, density operators as rho -> U rho U+.
    """
    if targets is None:
        targets = tuple(range(1, state.n_qubits + 1))
    full = embed_unitary(u, tuple(targets), state.n_qubits)
    if state.is_density:
        return QuantumState(state.n_qubits, full @ state.data @ full.conj().T)
    return QuantumState(state.n_qubits, full @ state.data)


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
    dist = np.asarray(dist, dtype=float)
    p = np.clip(dist, 0.0, None)
    return rng.multinomial(shots, p / p.sum())
