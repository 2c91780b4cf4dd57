"""Tests for the noise channels, pulse schedules, and the noisy algorithm."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import qrps.noise
from qrps.circuits import (
    angles_from_distribution,
    diffusion,
    phase_aligned_distance,
    rotation,
    u_zz,
)
from qrps.deliberation import run_ideal
from qrps.noise import (
    NOISELESS,
    NoiseModel,
    PulseSettings,
    collective_dephasing,
    compile_diffusion_schedule,
    compile_preparation_schedule,
    detection_confusion,
    detuned_rotation,
    noisy_distribution,
    run_noisy,
    schedule_unitary,
    simulate_schedule,
    ur14_phases,
    window_infidelity,
    zz_window_schedule,
)
from qrps.qsim import QuantumState, apply, on_qubit, probabilities, zero_state

GAMMA_TAU = 1.0 / 14.0
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def bell_density():
    v = np.array([1, 0, 0, 1]) / math.sqrt(2)
    return QuantumState(np.outer(v, v.conj()))


# ----------------------------------------------------------------- NoiseModel

def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(detuning_ratio=1.0)
    with pytest.raises(ValueError):
        NoiseModel(dephasing_exponent=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(detect_bright_as_dark=1.0)
    with pytest.raises(ValueError):
        NoiseModel(prep_epsilon_jitter=-1e-3)


# ----------------------------------------------------------- detuned rotation

def test_detuned_rotation_zero_detuning():
    for theta in np.linspace(-2 * np.pi, 2 * np.pi, 9):
        for phi in np.linspace(0, 2 * np.pi, 7):
            np.testing.assert_allclose(
                detuned_rotation(theta, phi, 0.0), rotation(theta, phi), atol=1e-12
            )


def test_detuned_rotation_matches_exponential_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        theta, phi = rng.uniform(-2 * np.pi, 2 * np.pi, 2)
        delta = rng.uniform(-0.5, 0.5)
        gen = 0.5j * theta * ((X * math.cos(phi) - Y * math.sin(phi)) + delta * Z)
        np.testing.assert_allclose(detuned_rotation(theta, phi, delta), expm(gen), atol=1e-12)


def test_detuned_pi_pulse_transfer_deficit():
    u = detuned_rotation(math.pi, 0.0, 0.04)
    transfer = abs(u[1, 0]) ** 2
    assert transfer < 1.0
    assert 1.0 - transfer < 4 * 0.04**2  # deficit is O(delta^2)


def test_detuned_rotation_unitary():
    rng = np.random.default_rng(6)
    for _ in range(200):
        u = detuned_rotation(*rng.uniform(-6, 6, 2), rng.uniform(-0.9, 0.9))
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


# ------------------------------------------------------------------ dephasing

def test_dephasing_zero_exponent_is_identity():
    rho = bell_density().data
    out = collective_dephasing(rho, 0.0)
    np.testing.assert_allclose(out, rho, atol=1e-15)


def test_dephasing_complete_kills_coherence():
    plus = np.array([1, 1, 1, 1]) / 2.0  # |++>
    out = collective_dephasing(np.outer(plus, plus), 1e6)
    np.testing.assert_allclose(out, np.eye(4) / 4, atol=1e-12)


def test_dephasing_preserves_density_invariants():
    rng = np.random.default_rng(8)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    d = collective_dephasing(np.outer(v, v.conj()), 0.3)
    assert abs(np.trace(d).real - 1.0) < 1e-12
    assert np.max(np.abs(d - d.conj().T)) < 1e-14
    assert np.min(np.linalg.eigvalsh(d)) > -1e-12
    for not_density in (v, QuantumState(v)):
        with pytest.raises(ValueError):
            collective_dephasing(not_density, 0.3)


def test_collective_dephasing_uniform_factor():
    rho = bell_density().data
    out = collective_dephasing(rho, GAMMA_TAU)
    assert abs(out[0, 3] - 0.5 * math.exp(-GAMMA_TAU)) < 1e-14
    np.testing.assert_allclose(np.diag(out), np.diag(rho), atol=1e-15)


# ------------------------------------------------------------------ detection

def test_detection_confusion_identity():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    np.testing.assert_allclose(detection_confusion(p, 0.0, 0.0), p, atol=1e-15)


def test_detection_confusion_dark_errors_only():
    out = detection_confusion(np.array([1.0, 0, 0, 0]), 0.0, 0.03)
    expected = [0.97**2, 0.97 * 0.03, 0.03 * 0.97, 0.03**2]
    np.testing.assert_allclose(out, expected, atol=1e-15)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    d_bright=st.floats(0.0, 1.0, exclude_max=True),
    d_dark=st.floats(0.0, 1.0, exclude_max=True),
)
@example(d_bright=0.06, d_dark=0.03)
def test_detection_confusion_is_stochastic_map(d_bright, d_dark):
    m = np.column_stack([detection_confusion(e, d_bright, d_dark) for e in np.eye(4)])
    np.testing.assert_allclose(m.sum(axis=0), np.ones(4), atol=1e-12)
    assert np.all(m >= 0.0)


def test_detection_bias_raises_symmetric_ratio():
    # asymmetric confusion pushes weight toward the all-dark outcome
    p = np.array([0.5, 0.5, 0.0, 0.0])
    out = detection_confusion(p, 0.06, 0.03)
    assert out[0] / out[1] > 1.0


# ----------------------------------------------------------------------- UR14

def test_ur14_phase_list():
    s = math.pi / 7
    expected = (0.0, 6 * s, 4 * s, 8 * s, 4 * s, 6 * s, 0.0, 0.0, 6 * s, 4 * s, 8 * s, 4 * s, 6 * s, 0.0)
    assert ur14_phases() == expected


def test_ur14_is_palindrome():
    phases = ur14_phases()
    assert phases == tuple(reversed(phases))


def test_ur14_ideal_pulse_product_is_identity():
    prod = np.eye(2)
    for phi in ur14_phases():  # first pulse acts first
        prod = rotation(math.pi, phi) @ prod
    assert phase_aligned_distance(prod, np.eye(2)) < 1e-10


# ------------------------------------------------------------------- schedules

def test_diffusion_schedule_pulse_budget():
    ang = angles_from_distribution(0.0146, 0.5)
    sched = compile_diffusion_schedule(ang)
    (window,) = sched.segments
    for q in (1, 2):
        inside = [p for p in sched.pulses
                  if p.qubit == q and window.start - 1e-15 <= p.center <= window.end + 1e-15]
        assert len(inside) == 140
    assert abs(sched.total_zz_angle - math.pi / 2) < 1e-12
    acc = sum(s.coupling * s.duration for s in sched.segments)
    assert abs(acc - math.pi / 2) < 1e-9


def test_bare_window_reproduces_ideal_gate():
    sched = zz_window_schedule(PulseSettings(dd_sets=0))
    u = schedule_unitary(sched, NOISELESS, "pulse")
    assert phase_aligned_distance(u, u_zz(math.pi / 2)) < 1e-10


def test_protected_window_angle_independent_of_sets():
    for x in (1, 4, 10):
        sched = zz_window_schedule(PulseSettings(dd_sets=x))
        u = schedule_unitary(sched, NOISELESS, "pulse")
        assert phase_aligned_distance(u, u_zz(math.pi / 2)) < 1e-9


def test_schedule_rejects_inconsistent_coupling():
    with pytest.raises(ValueError):
        compile_diffusion_schedule(
            angles_from_distribution(0.1, 0.5), PulseSettings(coupling=2 * math.pi * 70)
        )


def test_schedule_rejects_overcrowded_window():
    with pytest.raises(ValueError):
        zz_window_schedule(PulseSettings(dd_sets=15))  # pi pulses no longer fit
    # building the infeasible calibration raises, before any k = 0 run starts
    with pytest.raises(ValueError):
        noisy_distribution(0.9, settings=PulseSettings(dd_sets=13))


def test_pulse_settings_feasibility_boundaries():
    # At the default calibration coupling*tau/(pi/2) = 1.00064 and the pi
    # pulses fit up to twelve decoupling sets.
    PulseSettings(dd_sets=12)
    with pytest.raises(ValueError, match="do not fit"):
        PulseSettings(dd_sets=13)
    tau = PulseSettings().tau
    for r in (0.9991, 1.0009):
        PulseSettings(coupling=r * (math.pi / 2) / tau)
    for r in (0.9989, 1.0011):
        with pytest.raises(ValueError, match="inconsistent"):
            PulseSettings(coupling=r * (math.pi / 2) / tau)


def test_noiseless_schedule_matches_gate_diffusion():
    rng = np.random.default_rng(3)
    for fidelity in ("pulse", "gate"):
        for placement in ("after_window", "before_window"):
            for _ in range(15):
                eps = rng.uniform(0.01, 1.0)
                frac = rng.uniform(0.0, 1.0)
                ang = angles_from_distribution(eps, frac)
                sched = compile_diffusion_schedule(ang, rz_placement=placement)
                u = schedule_unitary(sched, NOISELESS, fidelity)
                assert phase_aligned_distance(u, diffusion(ang)) < 1e-8


def _reference_schedule_unitary(schedule, noise, fidelity):
    """Interval-by-interval composition: each interval rescans every pulse."""

    def overlap(a, b, lo, hi):
        return max(0.0, min(b, hi) - max(a, lo))

    def background(a, b):
        zz = sum(0.5 * s.coupling * overlap(a, b, s.start, s.end) for s in schedule.segments)
        drift = [b - a, b - a]
        if fidelity == "pulse":
            for p in schedule.pulses:
                drift[p.qubit - 1] -= overlap(a, b, p.start, p.end)
        d1, d2 = (0.5 * noise.detuning_ratio * schedule.rabi * d for d in drift)
        return np.diag(np.exp(1j * np.array([zz + d1 + d2, -zz + d1 - d2, -zz - d1 + d2, zz - d1 - d2])))

    kicks = {}
    for p in schedule.pulses:
        kicks.setdefault(p.center, []).append(p)
    u, t_prev = np.eye(4, dtype=complex), 0.0
    for t in sorted(kicks):
        u = background(t_prev, t) @ u
        for p in kicks[t]:
            u = on_qubit(detuned_rotation(p.angle, p.phase, noise.detuning_ratio), p.qubit) @ u
        t_prev = t
    return background(t_prev, schedule.t_end) @ u


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    eps=st.floats(0.005, 1.0),
    ratio=st.floats(0.0, 10.0),
    delta=st.floats(-0.08, 0.08, exclude_min=True, exclude_max=True),
    dd_sets=st.integers(0, 12),
    fidelity=st.sampled_from(["pulse", "gate"]),
    kind=st.sampled_from(["after_window", "before_window", "preparation", "ur14", "cpmg", "none"]),
)
def test_schedule_unitary_matches_interval_reference(eps, ratio, delta, dd_sets, fidelity, kind):
    ang = angles_from_distribution(eps, ratio / (1.0 + ratio))
    if kind in ("after_window", "before_window"):
        sched = compile_diffusion_schedule(ang, PulseSettings(dd_sets=dd_sets), rz_placement=kind)
    elif kind == "preparation":
        sched = compile_preparation_schedule(ang)
    else:
        sched = zz_window_schedule(PulseSettings(dd_sets=dd_sets), kind)
    noise = NoiseModel(detuning_ratio=delta)
    fast = schedule_unitary(sched, noise, fidelity)
    slow = _reference_schedule_unitary(sched, noise, fidelity)
    assert phase_aligned_distance(fast, slow) < 1e-12


def test_compile_rejects_unknown_placement():
    ang = angles_from_distribution(0.1, 0.5)
    with pytest.raises(ValueError):
        compile_diffusion_schedule(ang, rz_placement="sideways")


def test_alternating_layouts_echo_block_error():
    # two steps with alternating layouts cancel the leading coherent error
    # that two identical steps accumulate
    ang = angles_from_distribution(0.0504, 0.5)
    noise = NoiseModel(detuning_ratio=-0.015)
    after = schedule_unitary(compile_diffusion_schedule(ang), noise, "pulse")
    before = schedule_unitary(
        compile_diffusion_schedule(ang, rz_placement="before_window"), noise, "pulse"
    )
    ideal = diffusion(ang)
    fid_alt = abs(np.trace((ideal @ ideal).conj().T @ (before @ after))) / 4
    fid_rep = abs(np.trace((ideal @ ideal).conj().T @ (after @ after))) / 4
    assert fid_alt > fid_rep


def test_simulate_schedule_requires_density_for_dephasing():
    ang = angles_from_distribution(0.1, 0.5)
    sched = compile_diffusion_schedule(ang)
    with pytest.raises(ValueError):
        simulate_schedule(sched, NoiseModel(dephasing_exponent=GAMMA_TAU), zero_state())


def test_simulate_schedule_applies_step_dephasing():
    ang = angles_from_distribution(0.1, 0.5)
    sched = compile_diffusion_schedule(ang)
    noise = NoiseModel(dephasing_exponent=GAMMA_TAU)
    state = zero_state(mode="density")
    out = simulate_schedule(sched, noise, state)
    oracle = collective_dephasing(
        apply(state, schedule_unitary(sched, noise, "pulse")).data, GAMMA_TAU
    )
    np.testing.assert_allclose(out.data, oracle, atol=1e-12)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
def test_noisy_distribution_composes_each_layout_once(monkeypatch, k):
    calls = {"compile_diffusion_schedule": 0, "schedule_unitary": 0}
    for name in calls:
        original = getattr(qrps.noise, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(qrps.noise, name, counting)
    noise = NoiseModel(detuning_ratio=-0.04, dephasing_exponent=GAMMA_TAU)
    noisy_distribution(0.1, 1.0, noise, "pulse", k=k, settings=PulseSettings(dd_sets=1))
    # one compilation per step layout in use, none without steps
    assert calls["compile_diffusion_schedule"] == min(k, 2)
    # the preparation, then one composition per step layout in use
    assert calls["schedule_unitary"] == 1 + min(k, 2)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    eps=st.floats(0.005, 1.0),
    ratio=st.floats(0.0, 10.0),
    delta=st.floats(-0.08, 0.08),
    gamma=st.floats(0.0, 2.0),
    fidelity=st.sampled_from(["pulse", "gate"]),
    dd_sets=st.integers(0, 12),
    k=st.integers(0, 7),
)
def test_noisy_run_is_trace_preserving_and_positive(eps, ratio, delta, gamma, fidelity, dd_sets, k):
    # The density array evolves unvalidated between the preparation and the
    # read-out, so check the one state that is validated, the final one.
    finals = []

    def capture(state):
        finals.append(state)
        return probabilities(state)

    noise = NoiseModel(detuning_ratio=delta, dephasing_exponent=gamma)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qrps.noise, "probabilities", capture)
        p = noisy_distribution(eps, ratio, noise, fidelity, k=k, settings=PulseSettings(dd_sets=dd_sets))
    (state,) = finals
    rho = state.data
    assert state.is_density
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-12
    assert p.shape == (4,) and np.all(np.isfinite(p))
    assert p.min() >= 0.0 and abs(p.sum() - 1.0) < 1e-12


# --------------------------------------------------------- window robustness

def test_ur14_beats_unprotected_window():
    for delta in (0.02, 0.04, 0.08, -0.02, -0.04, -0.08):
        assert window_infidelity(delta, scheme="ur14") < window_infidelity(delta, scheme="none")


def test_ur14_beats_constant_phase_train():
    for delta in (0.04, 0.08, -0.04, -0.08):
        assert window_infidelity(delta, scheme="ur14") < window_infidelity(delta, scheme="cpmg")


def test_protected_window_beats_bare_window_in_full_step():
    # full diffusion step with and without decoupling at fixed drift
    ang = angles_from_distribution(0.0146, 0.5)
    noise = NoiseModel(detuning_ratio=-0.04)
    ideal = diffusion(ang)
    with_dd = schedule_unitary(compile_diffusion_schedule(ang), noise, "pulse")
    without = schedule_unitary(compile_diffusion_schedule(ang, PulseSettings(dd_sets=0)), noise, "pulse")
    fid_dd = abs(np.trace(ideal.conj().T @ with_dd)) / 4
    fid_bare = abs(np.trace(ideal.conj().T @ without)) / 4
    assert fid_dd > fid_bare


def test_negative_diffusion_count_rejected():
    with pytest.raises(ValueError):
        run_noisy(0.1, k_override=-1, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        noisy_distribution(0.1, k=-1)
    with pytest.raises(ValueError):
        run_ideal(0.1, 1.0, -2)


# ------------------------------------------------------------------ run_noisy

def test_noiseless_run_matches_ideal_within_sampling():
    eps = 0.0987
    res = run_noisy(eps, 1.0, NOISELESS, "gate", shots=1600, rng=np.random.default_rng(1))
    exact = run_ideal(eps, 1.0)
    for b, p in ((res.b00, exact[0]), (res.b01, exact[1])):
        assert abs(b - p) < 3 * math.sqrt(p * (1 - p) / 1600) + 1e-9
    assert res.k == 2
    assert sum(res.counts) == 1600
    assert abs(res.eps_tilde - (res.b00 + res.b01)) < 1e-12
    assert abs(res.cost - (2 * res.k + 1) / res.eps_tilde) < 1e-12


def test_run_noisy_deterministic():
    noise = NoiseModel(detuning_ratio=-0.02, dephasing_exponent=GAMMA_TAU)
    a = run_noisy(0.0504, 1.0, noise, "pulse", shots=400, rng=np.random.default_rng(9))
    b = run_noisy(0.0504, 1.0, noise, "pulse", shots=400, rng=np.random.default_rng(9))
    assert a == b


def test_run_noisy_jitter_shifts_preparation_only():
    noise = NoiseModel(prep_epsilon_jitter=0.05)
    res = run_noisy(0.2742, 1.0, noise, "gate", shots=800, rng=np.random.default_rng(2))
    assert res.k == 1  # diffusion count comes from the nominal epsilon
    clean = run_noisy(0.2742, 1.0, NOISELESS, "gate", shots=800, rng=np.random.default_rng(2))
    assert res.counts != clean.counts


def test_dephasing_anchor_six_steps():
    noise = NoiseModel(dephasing_exponent=GAMMA_TAU)
    p = noisy_distribution(0.0146, 1.0, noise, "pulse")
    assert abs((p[0] + p[1]) - 0.90) < 0.03


def test_full_noise_anchor_six_steps():
    noise = NoiseModel(
        detuning_ratio=-0.04,
        dephasing_exponent=GAMMA_TAU,
        detect_bright_as_dark=0.06,
        detect_dark_as_bright=0.03,
    )
    p = noisy_distribution(0.0146, 1.0, noise, "pulse")
    assert abs((p[0] + p[1]) - 0.77) < 0.05


def test_small_detuning_three_steps_regression():
    # regression pin: the simulated value for this configuration
    noise = NoiseModel(
        detuning_ratio=-0.015,
        dephasing_exponent=GAMMA_TAU,
        detect_bright_as_dark=0.06,
        detect_dark_as_bright=0.03,
    )
    p = noisy_distribution(0.0504, 1.0, noise, "pulse", k=3)
    assert abs((p[0] + p[1]) - 0.9134) < 0.005
    # and it degrades further at the larger drift of the scaling dataset
    worse = noisy_distribution(
        0.0504, 1.0,
        NoiseModel(detuning_ratio=-0.04, dephasing_exponent=GAMMA_TAU,
                   detect_bright_as_dark=0.06, detect_dark_as_bright=0.03),
        "pulse", k=3,
    )
    assert worse[0] + worse[1] < p[0] + p[1]


def test_detection_bias_direction_through_algorithm():
    noise = NoiseModel(detect_bright_as_dark=0.06, detect_dark_as_bright=0.03)
    p = noisy_distribution(0.2742, 1.0, noise, "pulse", k=1)
    assert p[0] / p[1] > 1.0
