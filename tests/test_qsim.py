"""Tests for the simulation substrate: states, unitaries, measurement, sampling."""

import warnings

import numpy as np
import pytest
from scipy import stats

from qrps.circuits import angles_from_distribution, prepare_alpha
from qrps.qsim import (
    QuantumState,
    apply,
    embed_unitary,
    probabilities,
    sample_outcomes,
    zero_state,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def haar_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- zero_state

def test_zero_state_two_qubit_pure():
    s = zero_state()
    assert s.data.shape == (4,)
    assert s.data[0] == 1.0
    assert np.all(s.data[1:] == 0)


def test_zero_state_two_qubit_density():
    s = zero_state(mode="density")
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(s.data, expected)


def test_zero_state_rejects_unknown_mode():
    with pytest.raises(ValueError):
        zero_state(mode="mixed-up")


def test_state_validation():
    with pytest.raises(ValueError):
        QuantumState(np.array([1.0, 1.0, 0.0, 0.0]))  # unnormalized
    not_hermitian = np.eye(4, dtype=complex) / 4
    not_hermitian[0, 1] = not_hermitian[1, 0] = 0.25j
    with pytest.raises(ValueError):
        QuantumState(not_hermitian)
    with pytest.raises(ValueError):
        QuantumState(np.eye(4) / 2)  # trace 2
    with pytest.raises(ValueError):
        QuantumState(np.eye(8)[0])  # a register other than two qubits


# --------------------------------------------------------------------- apply

def test_apply_x_on_second_qubit():
    s = apply(zero_state(), X, (2,))
    np.testing.assert_allclose(s.data, [0, 1, 0, 0], atol=1e-15)


def test_apply_identity():
    s = apply(zero_state(), np.eye(2), (1,))
    np.testing.assert_allclose(s.data, [1, 0, 0, 0], atol=1e-15)


def test_apply_cnot_flips_target():
    s = apply(zero_state(), X, (1,))  # |10>
    s = apply(s, CNOT, (1, 2))
    np.testing.assert_allclose(s.data, [0, 0, 0, 1], atol=1e-14)


def test_apply_rejects_bad_targets():
    with pytest.raises(ValueError):
        apply(zero_state(), X, (1, 2))  # dimension mismatch
    with pytest.raises(ValueError):
        apply(zero_state(), X, (3,))  # out of range
    with pytest.raises(ValueError):
        apply(zero_state(), CNOT, (1, 1))  # repeated target


def test_embedding_matches_kronecker():
    rng = np.random.default_rng(7)
    u = haar_unitary(2, rng)
    np.testing.assert_allclose(embed_unitary(u, (2,)), np.kron(np.eye(2), u), atol=1e-12)
    np.testing.assert_allclose(embed_unitary(u, (1,)), np.kron(u, np.eye(2)), atol=1e-12)
    v = haar_unitary(4, rng)
    np.testing.assert_allclose(embed_unitary(v, (1, 2)), v, atol=1e-12)
    swap = np.eye(4)[[0, 2, 1, 3]]
    np.testing.assert_allclose(embed_unitary(v, (2, 1)), swap @ v @ swap, atol=1e-12)


def test_embedding_swapped_targets():
    # CNOT on (2, 1) controls on qubit 2.
    s = apply(zero_state(), X, (2,))  # |01>
    s = apply(s, CNOT, (2, 1))
    np.testing.assert_allclose(s.data, [0, 0, 0, 1], atol=1e-14)


# ------------------------------------------------------------- probabilities

def test_probabilities_basis_state():
    np.testing.assert_allclose(probabilities(zero_state()), [1, 0, 0, 0])


def test_probabilities_bell_state():
    bell = QuantumState(np.array([1, 0, 0, 1]) / np.sqrt(2))
    np.testing.assert_allclose(probabilities(bell), [0.5, 0, 0, 0.5], atol=1e-15)


def test_probabilities_prepared_state_matches_flagged_weights():
    # epsilon = 0.2742 split evenly over the two flagged actions
    p = probabilities(prepare_alpha(angles_from_distribution(0.2742, 0.5)))
    assert abs(p[0] - 0.1371) < 5e-5
    assert abs(p[1] - 0.1371) < 5e-5


def test_probabilities_pure_equals_density():
    rng = np.random.default_rng(11)
    for _ in range(50):
        psi = QuantumState(random_pure(4, rng))
        np.testing.assert_allclose(
            probabilities(psi), probabilities(QuantumState(np.outer(psi.data, psi.data.conj()))),
            atol=1e-12,
        )


def test_probabilities_rejects_large_deviation():
    s = zero_state()
    object.__setattr__(s, "data", np.array([1.0 + 5e-5, 0, 0, 0], dtype=complex))
    with pytest.raises(ValueError):
        probabilities(s)


# ------------------------------------------------------------------ sampling

def test_sampling_degenerate_distribution():
    counts = sample_outcomes(np.array([1.0, 0, 0, 0]), 100, np.random.default_rng(0))
    np.testing.assert_array_equal(counts, [100, 0, 0, 0])


def test_sampling_within_binomial_bounds():
    counts = sample_outcomes(np.array([0.5, 0.5, 0, 0]), 1600, np.random.default_rng(3))
    assert counts.sum() == 1600
    # 3 sigma of a fair binomial at 1600 shots
    assert abs(counts[0] / 1600 - 0.5) < 3 * np.sqrt(0.25 / 1600)


def test_sampling_deterministic_for_fixed_seed():
    dist = np.array([0.3, 0.4, 0.2, 0.1])
    a = sample_outcomes(dist, 500, np.random.default_rng(42))
    b = sample_outcomes(dist, 500, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_sampling_rejects_zero_shots():
    with pytest.raises(ValueError):
        sample_outcomes(np.array([1.0, 0.0]), 0, np.random.default_rng(0))


@pytest.mark.parametrize(
    "dist",
    [np.zeros(4), np.array([-0.5, 0, 0, 0]), np.array([np.nan, 0.5, 0.5, 0]), np.array([np.inf, 0, 0, 0])],
)
def test_sampling_rejects_empty_or_nonfinite_distribution(dist):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="positive finite total"):
            sample_outcomes(dist, 10, rng)
    assert rng.bit_generator.state == state


def test_sampling_chi_square_goodness_of_fit():
    dist = np.array([0.4, 0.3, 0.2, 0.1])
    counts = sample_outcomes(dist, 100_000, np.random.default_rng(5))
    _, p_value = stats.chisquare(counts, dist * 100_000)
    assert p_value > 0.001


# ---------------------------------------------------------------- properties

def test_unitary_application_preserves_invariants():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        u = haar_unitary(2, rng)
        target = int(rng.integers(1, 3))
        psi = QuantumState(random_pure(4, rng))
        out = apply(psi, u, (target,))
        assert abs(np.linalg.norm(out.data) - 1.0) < 1e-10

        rho = QuantumState(np.outer(psi.data, psi.data.conj()))
        out_rho = apply(rho, u, (target,))
        d = out_rho.data
        assert abs(np.trace(d).real - 1.0) < 1e-10
        assert np.max(np.abs(d - d.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(d)) > -1e-10
