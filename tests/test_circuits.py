"""Tests for the gate set and the circuit decomposition identities."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from qrps.circuits import (
    PreparationAngles,
    StationaryDistribution,
    angles_from_distribution,
    cnot,
    diffusion,
    phase_aligned_distance,
    prepare_alpha,
    ref_actions,
    ref_alpha,
    rotation,
    rotation_z,
    rz_pulse_identity,
    u_zz,
)
from qrps.qsim import QuantumState, apply, probabilities

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

CANONICAL_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)

ANGLE_GRID = [(t1, t2) for t1 in np.linspace(0.0, 2 * np.pi, 11) for t2 in np.linspace(0.0, 2 * np.pi, 11)]


def expm_rotation(theta, phi):
    return expm(0.5j * theta * (X * math.cos(phi) - Y * math.sin(phi)))


# ------------------------------------------------------------------ rotation

def test_rotation_zero_angle_is_identity():
    for phi in (0.0, 1.0, math.pi):
        np.testing.assert_allclose(rotation(0.0, phi), np.eye(2), atol=1e-15)


def test_rotation_pi_is_ix():
    np.testing.assert_allclose(rotation(math.pi, 0.0), 1j * X, atol=1e-15)


def test_rotation_half_pi_about_y():
    c = math.cos(math.pi / 4)
    expected = np.array([[c, -c], [c, c]])
    np.testing.assert_allclose(rotation(math.pi / 2, math.pi / 2), expected, atol=1e-15)


def test_rotation_matches_matrix_exponential():
    rng = np.random.default_rng(1)
    for _ in range(100):
        theta, phi = rng.uniform(-2 * np.pi, 2 * np.pi, 2)
        np.testing.assert_allclose(rotation(theta, phi), expm_rotation(theta, phi), atol=1e-12)


def test_rotation_inverse_pairs():
    for theta in np.linspace(-2 * np.pi, 2 * np.pi, 17):
        for phi in np.linspace(0, 2 * np.pi, 9):
            np.testing.assert_allclose(
                rotation(theta, phi) @ rotation(-theta, phi), np.eye(2), atol=1e-12
            )


def test_rotation_z_values():
    np.testing.assert_allclose(rotation_z(0.0), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(rotation_z(-math.pi), np.diag([1j, -1j]), atol=1e-15)
    np.testing.assert_allclose(
        rotation_z(math.pi / 2),
        np.diag([np.exp(-0.25j * np.pi), np.exp(0.25j * np.pi)]),
        atol=1e-15,
    )


# ---------------------------------------------------------- rz pulse identity

def test_rz_pulse_identity_lists():
    hp = math.pi / 2
    assert rz_pulse_identity(+1) == [(hp, hp), (hp, 0.0), (hp, 3 * hp)]
    assert rz_pulse_identity(-1) == [(hp, hp), (hp, math.pi), (hp, 3 * hp)]


def test_rz_pulse_identity_products():
    for sign in (+1, -1):
        prod = np.linalg.multi_dot([rotation(t, p) for t, p in rz_pulse_identity(sign)])
        assert phase_aligned_distance(prod, rotation_z(sign * math.pi / 2)) < 1e-10


def test_rz_pulse_identity_composition_is_identity():
    plus = np.linalg.multi_dot([rotation(t, p) for t, p in rz_pulse_identity(+1)])
    minus = np.linalg.multi_dot([rotation(t, p) for t, p in rz_pulse_identity(-1)])
    assert phase_aligned_distance(plus @ minus, np.eye(2)) < 1e-10


def test_rz_pulse_identity_rejects_bad_sign():
    with pytest.raises(ValueError):
        rz_pulse_identity(0)


# ---------------------------------------------------------------------- u_zz

def test_u_zz_values():
    np.testing.assert_allclose(u_zz(0.0), np.eye(4), atol=1e-15)
    a = np.exp(0.25j * np.pi)
    np.testing.assert_allclose(
        u_zz(math.pi / 2), np.diag([a, a.conjugate(), a.conjugate(), a]), atol=1e-15
    )
    # full period is a global phase
    assert phase_aligned_distance(u_zz(2 * math.pi), np.eye(4)) < 1e-12


# ---------------------------------------------------- phase_aligned_distance

def test_phase_aligned_distance_of_orthogonal_inputs_is_the_plain_distance():
    # With no overlap there is no phase to align, so no phase is applied.
    e0, e1 = np.eye(4)[0], np.eye(4)[1]
    assert phase_aligned_distance(e0, e1) == 1.0


# ---------------------------------------------------------------------- cnot

def test_cnot_matches_canonical():
    assert phase_aligned_distance(cnot(), CANONICAL_CNOT) < 1e-10


def test_cnot_action_on_basis_states():
    flipped = apply(apply(QuantumState(np.eye(4)[0]), X, (1,)), cnot(), (1, 2))
    np.testing.assert_allclose(np.abs(flipped.data), [0, 0, 0, 1], atol=1e-12)
    untouched = apply(QuantumState(np.eye(4)[0]), cnot(), (1, 2))
    np.testing.assert_allclose(np.abs(untouched.data), [1, 0, 0, 0], atol=1e-12)


# ----------------------------------------------------------------- angle map

def test_angles_all_weight_on_00():
    ang = angles_from_distribution(1.0, 1.0)
    assert abs(ang.theta1) < 1e-12 and abs(ang.theta2) < 1e-12


def test_angles_even_flagged_split():
    ang = angles_from_distribution(0.3, 0.5)
    assert abs(ang.theta2 - math.pi / 2) < 1e-12


def test_angles_for_quarter_flagged_weight():
    ang = angles_from_distribution(0.2742, 0.5)
    assert abs(ang.theta1 - 2.0 * math.acos(math.sqrt(0.2742))) < 1e-12
    assert abs(ang.theta1 - 2.0394) < 1e-4


def test_angles_reject_zero_epsilon():
    with pytest.raises(ValueError):
        angles_from_distribution(0.0, 0.5)
    with pytest.raises(ValueError):
        angles_from_distribution(1.2, 0.5)


def test_angle_round_trip_reproduces_weights():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        eps = rng.uniform(1e-4, 1.0)
        frac = rng.uniform(0.0, 1.0)
        p = probabilities(prepare_alpha(angles_from_distribution(eps, frac)))
        assert abs((p[0] + p[1]) - eps) < 1e-10
        assert abs(p[0] - eps * frac) < 1e-10


# -------------------------------------------------------------- prepare_alpha

def test_prepare_alpha_identity_angles():
    s = prepare_alpha(PreparationAngles(0.0, 0.0))
    np.testing.assert_allclose(s.data, [1, 0, 0, 0], atol=1e-15)


def test_prepare_alpha_zero_flagged_weight():
    p = probabilities(prepare_alpha(PreparationAngles(math.pi, 1.23)))
    assert p[0] + p[1] < 1e-15


def test_prepare_alpha_three_step_grid_point():
    p = probabilities(prepare_alpha(angles_from_distribution(0.0504, 0.5)))
    assert abs(p[0] - 0.0252) < 5e-5
    assert abs(p[1] - 0.0252) < 5e-5


def test_prepare_alpha_matches_two_applied_rotations():
    # Reference: the two rotations applied in turn to |00>.
    rng = np.random.default_rng(11)
    hp = math.pi / 2
    for t1, t2 in rng.uniform(-2 * np.pi, 2 * np.pi, (50, 2)):
        ref = apply(apply(QuantumState(np.eye(4)[0]), rotation(t2, hp), (2,)), rotation(t1, hp), (1,))
        np.testing.assert_allclose(prepare_alpha(PreparationAngles(t1, t2)).data, ref.data, rtol=0, atol=1e-15)


# ----------------------------------------------------------------- reflections

def test_ref_actions_matrix():
    np.testing.assert_allclose(ref_actions(), np.diag([1j, 1j, -1j, -1j]), atol=1e-15)


def test_ref_actions_squares_to_identity():
    r = ref_actions()
    assert phase_aligned_distance(r @ r, np.eye(4)) < 1e-12


def test_ref_alpha_fixes_alpha():
    ang = angles_from_distribution(0.2742, 0.5)
    alpha = prepare_alpha(ang).data
    out = ref_alpha(ang) @ alpha
    assert phase_aligned_distance(out, alpha) < 1e-10


def test_ref_alpha_negates_orthogonal_component():
    ang = angles_from_distribution(0.37, 0.4)
    alpha = prepare_alpha(ang).data
    rng = np.random.default_rng(3)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v -= alpha * np.vdot(alpha, v)
    v /= np.linalg.norm(v)
    out = ref_alpha(ang) @ v
    assert phase_aligned_distance(out, -v) < 1e-10


def test_ref_alpha_equals_projector_form():
    ang = angles_from_distribution(0.2742, 0.5)
    alpha = prepare_alpha(ang).data
    target = 2 * np.outer(alpha, alpha.conj()) - np.eye(4)
    assert phase_aligned_distance(ref_alpha(ang), target) < 1e-10


# ------------------------------------------------------------------ diffusion

def test_diffusion_equals_composed_reflections_on_grid():
    for t1, t2 in ANGLE_GRID:
        ang = PreparationAngles(t1, t2)
        d = phase_aligned_distance(diffusion(ang), ref_alpha(ang) @ ref_actions())
        assert d < 1e-10, (t1, t2, d)


def test_diffusion_is_unitary():
    rng = np.random.default_rng(17)
    for _ in range(200):
        ang = PreparationAngles(*rng.uniform(0, 2 * np.pi, 2))
        for u in (diffusion(ang), ref_alpha(ang)):
            np.testing.assert_allclose(u.conj().T @ u, np.eye(4), rtol=0, atol=1e-12)


def test_single_step_flagged_probability():
    ang = angles_from_distribution(0.2742, 0.5)
    state = apply(prepare_alpha(ang), diffusion(ang))
    p = probabilities(state)
    assert abs((p[0] + p[1]) - 0.9932) < 1e-4


def test_grover_sector_invariance():
    # D^k |alpha> stays in span{flagged component, unflagged component}
    ang = angles_from_distribution(0.1, 0.3)
    alpha = prepare_alpha(ang).data
    g = alpha.copy()
    g[2:] = 0
    g /= np.linalg.norm(g)
    b = alpha.copy()
    b[:2] = 0
    b /= np.linalg.norm(b)
    basis = np.stack([g, b], axis=1)
    step = diffusion(ang)
    state = alpha
    for _ in range(10):
        state = step @ state
        overlap = np.linalg.norm(basis.conj().T @ state)
        assert abs(overlap - 1.0) < 1e-9


# --------------------------------------------------- stationary distribution

def test_stationary_distribution_properties():
    d = StationaryDistribution.from_epsilon_ratio(0.2742, 1.0)
    assert abs(d.epsilon - 0.2742) < 1e-12
    assert abs(d.a00 - 0.1371) < 1e-12
    d2 = StationaryDistribution.from_epsilon_ratio(0.00271 + 0.27144, 0.00271 / 0.27144)
    np.testing.assert_allclose(d2.a, [0.00271, 0.27144, 0.362925, 0.362925], rtol=0, atol=1e-12)


def test_stationary_distribution_validation():
    with pytest.raises(ValueError):
        StationaryDistribution(np.array([0.5, 0.5, 0.5, -0.5]))
    with pytest.raises(ValueError):
        StationaryDistribution.from_epsilon_ratio(0.0, 1.0)
    with pytest.raises(ValueError):
        StationaryDistribution.from_epsilon_ratio(0.5, -1.0)


def test_stationary_distribution_copies_the_callers_array():
    x = np.array([0.1, 0.1, 0.4, 0.4])
    d = StationaryDistribution(x)
    assert d.a is not x and x.flags.writeable and not d.a.flags.writeable
    x[0] = 0.9
    np.testing.assert_array_equal(d.a, [0.1, 0.1, 0.4, 0.4])


def test_stationary_distribution_equality_and_hash_are_by_identity():
    d1 = StationaryDistribution.from_epsilon_ratio(0.2742, 1.0)
    d2 = StationaryDistribution.from_epsilon_ratio(0.2742, 1.0)
    assert d1 == d1 and d1 != d2
    assert hash(d1) == hash(d1)
    assert len({d1, d2}) == 2
