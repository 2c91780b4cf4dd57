"""Tests for the noise channels, pulse schedules, and the noisy algorithm."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import qrps.noise
from qrps.circuits import (
    PreparationAngles,
    StationaryDistribution,
    angles_from_distribution,
    diffusion,
    phase_aligned_distance,
    rotation,
    u_zz,
)
from qrps.deliberation import optimal_k, run_ideal
from qrps.noise import (
    DD_CYCLES,
    LAYOUTS,
    NOISELESS,
    NoiseModel,
    PulseSchedule,
    PulseSettings,
    RFPulse,
    ZZSegment,
    collective_dephasing,
    compile_diffusion_schedule,
    compile_preparation_schedule,
    detection_confusion,
    noisy_distribution,
    result_from_distribution,
    run_noisy,
    schedule_unitary,
    simulate_schedule,
    ur14_phases,
    window_infidelity,
    window_unitary,
)
from qrps.qsim import QuantumState, apply, probabilities

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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_noise_and_calibration_reject_non_finite_values(value):
    for field in ("detuning_ratio", "dephasing_exponent", "detect_bright_as_dark",
                  "detect_dark_as_bright", "prep_epsilon_jitter"):
        with pytest.raises(ValueError, match=field):
            NoiseModel(**{field: value})
    for field in ("rabi", "tau"):
        with pytest.raises(ValueError, match=field):
            PulseSettings(**{field: value})


# ----------------------------------------------------------- detuned rotation

def test_detuned_rotation_zero_detuning():
    # The resonant closed form of the ``rotation`` docstring.
    for theta in np.linspace(-2 * np.pi, 2 * np.pi, 9):
        for phi in np.linspace(0, 2 * np.pi, 7):
            c, s = np.cos(theta / 2), np.sin(theta / 2)
            closed = np.array([[c, 1j * np.exp(1j * phi) * s], [1j * np.exp(-1j * phi) * s, c]])
            np.testing.assert_allclose(rotation(theta, phi), closed, rtol=0, atol=1e-15)


def test_detuned_rotation_matches_exponential_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        theta, phi = rng.uniform(-2 * np.pi, 2 * np.pi, 2)
        delta = rng.uniform(-0.5, 0.5)
        gen = 0.5j * theta * ((X * math.cos(phi) - Y * math.sin(phi)) + delta * Z)
        np.testing.assert_allclose(rotation(theta, phi, delta), expm(gen), atol=1e-12)


def test_detuned_pi_pulse_transfer_deficit():
    u = rotation(math.pi, 0.0, 0.04)
    transfer = abs(u[1, 0]) ** 2
    assert transfer < 1.0
    assert 1.0 - transfer < 4 * 0.04**2  # deficit is O(delta^2)


def test_detuned_rotation_unitary():
    rng = np.random.default_rng(6)
    for _ in range(200):
        u = rotation(*rng.uniform(-6, 6, 2), rng.uniform(-0.9, 0.9))
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


@pytest.mark.parametrize("gamma_tau", [math.nan, math.inf, -0.1])
def test_dephasing_rejects_non_finite_or_negative_exponent(gamma_tau):
    with pytest.raises(ValueError, match=r"gamma_tau must lie in \[0, inf\)"):
        collective_dephasing(bell_density().data, gamma_tau)


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


@pytest.mark.parametrize("rates", [(math.nan, 0.03), (0.06, math.nan), (1.0, 0.0), (0.0, -0.1)])
def test_detection_confusion_rejects_rates_outside_unit_interval(rates):
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\)"):
        detection_confusion(np.array([0.4, 0.3, 0.2, 0.1]), *rates)


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
    acc = sum(s.coupling * s.duration for s in sched.segments)
    assert abs(acc - math.pi / 2) < 1e-12


def test_bare_window_reproduces_ideal_gate():
    u = window_unitary(PulseSettings(dd_sets=0), 0.0, "pulse", ur14_phases())
    assert phase_aligned_distance(u, u_zz(math.pi / 2)) < 1e-10


def test_protected_window_angle_independent_of_sets():
    for x in (1, 4, 10):
        u = window_unitary(PulseSettings(dd_sets=x), 0.0, "pulse", ur14_phases())
        assert phase_aligned_distance(u, u_zz(math.pi / 2)) < 1e-9


def test_schedule_rejects_overcrowded_window():
    with pytest.raises(ValueError):
        window_unitary(PulseSettings(dd_sets=15), 0.0, "pulse", ur14_phases())  # pi pulses no longer fit
    # building the infeasible calibration raises, before any k = 0 run starts
    with pytest.raises(ValueError):
        noisy_distribution(0.9, settings=PulseSettings(dd_sets=13))


def test_pulse_settings_feasibility_boundaries():
    # At the default calibration the pi pulses fit up to twelve decoupling
    # sets, and ten sets' 140 pi pulses need tau >= 140 pi / rabi = 3.346 ms.
    PulseSettings(dd_sets=12)
    with pytest.raises(ValueError, match="do not fit"):
        PulseSettings(dd_sets=13)
    PulseSettings(tau=3.35e-3)
    with pytest.raises(ValueError, match="do not fit"):
        PulseSettings(tau=3.34e-3)


@pytest.mark.parametrize("dd_sets", [2.5, math.nan, math.inf, 10.0])
def test_pulse_settings_rejects_a_set_count_that_is_not_an_integer(dd_sets):
    with pytest.raises(ValueError, match=r"dd_sets must be nonnegative and an integer"):
        PulseSettings(dd_sets=dd_sets)


def test_float_set_count_fails_the_same_on_a_warm_memo():
    # dd_sets=10.0 would equal and hash like dd_sets=10, so without the
    # integer check it would read the warm memo entry and succeed, where a
    # cold memo fails inside numpy.
    noisy_distribution(0.1, settings=PulseSettings(dd_sets=10))
    window_infidelity(-0.04, PulseSettings(dd_sets=10))
    with pytest.raises(ValueError, match=r"dd_sets must be nonnegative and an integer"):
        noisy_distribution(0.1, settings=PulseSettings(dd_sets=10.0))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    theta1=st.floats(0.0, 2 * math.pi),
    theta2=st.floats(-2 * math.pi, 2 * math.pi),
    fidelity=st.sampled_from(["pulse", "gate"]),
    placement=st.sampled_from(LAYOUTS),
)
def test_noiseless_schedule_matches_gate_diffusion(theta1, theta2, fidelity, placement):
    ang = PreparationAngles(theta1, theta2)
    sched = compile_diffusion_schedule(ang, rz_placement=placement)
    u = schedule_unitary(sched, NOISELESS, fidelity)
    assert phase_aligned_distance(u, diffusion(ang)) <= 1e-12


def _window_schedule(settings, duration, phases):
    """A coupling window of ``duration`` at the calibrated coupling, as a schedule."""
    b = qrps.noise._ScheduleBuilder(settings.rabi)
    b.zz_window(duration, (math.pi / 2) / settings.tau, phases)
    return b.build()


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
            r = rotation(p.angle, p.phase, noise.detuning_ratio)
            u = (np.kron(r, np.eye(2)) if p.qubit == 1 else np.kron(np.eye(2), r)) @ u
        t_prev = t
    return background(t_prev, schedule.t_end) @ u


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    eps=st.floats(0.005, 1.0),
    ratio=st.floats(0.0, 10.0),
    delta=st.floats(-0.08, 0.08, exclude_min=True, exclude_max=True),
    dd_sets=st.integers(0, 12),
    fidelity=st.sampled_from(["pulse", "gate"]),
    kind=st.sampled_from(["after_window", "before_window", "preparation", "ur14", "cpmg", "ur14 set"]),
)
def test_schedule_unitary_matches_interval_reference(eps, ratio, delta, dd_sets, fidelity, kind):
    ang = angles_from_distribution(eps, ratio / (1.0 + ratio))
    if kind in LAYOUTS:
        sched = compile_diffusion_schedule(ang, PulseSettings(dd_sets=dd_sets), rz_placement=kind)
    elif kind == "preparation":
        sched = compile_preparation_schedule(ang)
    else:
        scheme, _, part = kind.partition(" ")
        settings_, cycle = PulseSettings(dd_sets=dd_sets), DD_CYCLES[scheme]
        if part:  # the first decoupling set; the bare window at dd_sets = 0
            sched = _window_schedule(settings_, settings_.tau / max(dd_sets, 1), cycle if dd_sets else ())
        else:
            sched = _window_schedule(settings_, settings_.tau, cycle * dd_sets)
    noise = NoiseModel(detuning_ratio=delta)
    fast = schedule_unitary(sched, noise, fidelity)
    slow = _reference_schedule_unitary(sched, noise, fidelity)
    assert phase_aligned_distance(fast, slow) < 1e-12


@st.composite
def hand_built_schedules(draw):
    """Schedules the builder never lays out.

    In each block the two qubits' pulses start at their own offsets with
    their own widths, so concurrent pulses differ in duration and one
    qubit's kick center falls inside the other's pulse.  One qubit may have
    no pulses, and the ZZ segments start and end anywhere on the timeline.
    """
    unit = st.floats(0.0, 1.0)
    silent = draw(st.sampled_from([None, None, None, 1, 2]))
    pulses, t = [], 0.0
    for _ in range(draw(st.integers(1, 4))):
        end, skipped = t, draw(st.sampled_from([None, None, None, 1, 2]))
        for q in (1, 2):
            if q in (silent, skipped):
                continue
            start, duration = t + 0.5 * draw(unit), draw(st.floats(0.05, 2.0))
            pulses.append(RFPulse(q, draw(st.floats(0.01, 2 * math.pi)), draw(st.floats(0.0, 2 * math.pi)),
                                  start, duration))
            end = max(end, start + duration)
        t = end + 0.5 * draw(unit)
    segments = []
    for _ in range(draw(st.integers(0, 2))):
        start = t * draw(unit)
        segments.append(ZZSegment(start, (t - start) * draw(unit), draw(st.floats(0.0, 3.0))))
    return PulseSchedule(tuple(pulses), tuple(segments), draw(st.floats(0.5, 4.0)), t)


# Qubit 1's first center (0.3) falls inside qubit 2's longer pulse, and the
# segment [0.2, 1.6] covers parts of the intervals on either side of 0.3-0.75.
UNEQUAL_CONCURRENT = PulseSchedule(
    (RFPulse(1, 1.1, 0.4, 0.0, 0.6), RFPulse(2, 2.5, 1.3, 0.0, 1.5), RFPulse(1, 0.7, 5.0, 1.8, 0.3)),
    (ZZSegment(0.2, 1.4, 0.9),), 1.7, 2.4,
)
# Qubit 1 has no pulses.
ONE_QUBIT_PULSED = PulseSchedule(
    (RFPulse(2, 1.9, 2.2, 0.1, 0.8), RFPulse(2, 0.4, 0.3, 1.2, 0.2)), (ZZSegment(0.5, 0.6, 1.3),), 2.0, 1.6,
)


# Coupling-free schedules, which compose per qubit.
# Qubit 1 has no pulses.
SILENT_QUBIT_1 = PulseSchedule((RFPulse(2, 1.9, 2.2, 0.1, 0.8), RFPulse(2, 0.4, 0.3, 1.2, 0.2)), (), 2.0, 1.6)
# Qubit 1's pulse starts before 0 and qubit 2's ends after t_end; both centers lie inside.
PAST_THE_ENDS = PulseSchedule((RFPulse(1, 1.3, 0.5, -0.2, 0.6), RFPulse(2, 0.8, 2.0, 0.7, 0.8)), (), 1.5, 1.2)
# Two zero-width pulses on qubit 1 at one center, which compose in schedule order.
SHARED_ZERO_WIDTH = PulseSchedule(
    (RFPulse(1, 0.9, 0.2, 0.5, 0.0), RFPulse(2, 1.4, 4.0, 0.2, 0.4), RFPulse(1, 1.7, 3.1, 0.5, 0.0)), (), 1.1, 0.9,
)
# Qubit 1's two pulses, before and after the center of a longer qubit-2 pulse, both overlap it.
AROUND_LONGER = PulseSchedule(
    (RFPulse(1, 1.1, 0.4, 0.0, 0.3), RFPulse(2, 2.5, 1.3, 0.1, 1.5), RFPulse(1, 0.7, 5.0, 1.3, 0.3)), (), 1.7, 2.2,
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    schedule=hand_built_schedules(),
    delta=st.floats(-0.9, 0.9),
    fidelity=st.sampled_from(["pulse", "gate"]),
)
@example(schedule=UNEQUAL_CONCURRENT, delta=0.3, fidelity="pulse")
@example(schedule=UNEQUAL_CONCURRENT, delta=-0.6, fidelity="gate")
@example(schedule=ONE_QUBIT_PULSED, delta=-0.5, fidelity="pulse")
@example(schedule=ONE_QUBIT_PULSED, delta=0.7, fidelity="gate")
@example(schedule=SILENT_QUBIT_1, delta=0.4, fidelity="pulse")
@example(schedule=SILENT_QUBIT_1, delta=-0.8, fidelity="gate")
@example(schedule=PAST_THE_ENDS, delta=-0.3, fidelity="pulse")
@example(schedule=PAST_THE_ENDS, delta=0.6, fidelity="gate")
@example(schedule=SHARED_ZERO_WIDTH, delta=0.5, fidelity="pulse")
@example(schedule=SHARED_ZERO_WIDTH, delta=-0.7, fidelity="gate")
@example(schedule=AROUND_LONGER, delta=-0.2, fidelity="pulse")
@example(schedule=AROUND_LONGER, delta=0.9, fidelity="gate")
def test_schedule_unitary_matches_interval_reference_on_hand_built_schedules(schedule, delta, fidelity):
    noise = NoiseModel(detuning_ratio=delta)
    fast = schedule_unitary(schedule, noise, fidelity)
    slow = _reference_schedule_unitary(schedule, noise, fidelity)
    assert phase_aligned_distance(fast, slow) < 1e-12


def _hamiltonian_oracle(schedule, delta):
    """Time-ordered exponential of the schedule's piecewise-constant Hamiltonian.

    Each qubit drifts at 0.5 delta rabi Z, is driven at 0.5 rabi (X cos phi -
    Y sin phi) while one of its own pulses plays, and the register couples at
    0.5 J ZZ while a segment is active.  The generator is constant between
    consecutive pulse and segment boundaries, so each such interval is one
    matrix exponential; nothing is taken from the schedule's composition.
    """
    on_qubit = (lambda op: np.kron(op, np.eye(2)), lambda op: np.kron(np.eye(2), op))
    bounds = {0.0, schedule.t_end}
    for event in (*schedule.pulses, *schedule.segments):
        bounds |= {event.start, event.end}
    times = sorted(bounds)
    u = np.eye(4, dtype=complex)
    for a, b in zip(times, times[1:]):
        mid = 0.5 * (a + b)
        h = 0.5 * delta * schedule.rabi * (on_qubit[0](Z) + on_qubit[1](Z))
        for p in schedule.pulses:
            if p.start < mid < p.end:
                h = h + 0.5 * schedule.rabi * on_qubit[p.qubit - 1](X * math.cos(p.phase) - Y * math.sin(p.phase))
        for seg in schedule.segments:
            if seg.start < mid < seg.end:
                h = h + 0.5 * seg.coupling * np.kron(Z, Z)
        u = expm(1j * (b - a) * h) @ u
    return u


@pytest.mark.parametrize("delta", [0.0, -0.04, 0.07])
def test_exact_pulse_schedules_match_hamiltonian_oracle(delta):
    # Where no pulse plays inside a coupling segment the pulse-fidelity
    # model is exact: the preparation, the three kick blocks, each layout's
    # kicks before and after its window, the bare window, and a decoupled
    # window with the coupling set to zero.
    settings_ = PulseSettings()
    schedules = []
    for ang in (angles_from_distribution(0.0146, 0.5), angles_from_distribution(0.2742, 0.9),
                PreparationAngles(2.3, -1.1)):
        schedules.append(compile_preparation_schedule(ang, settings_))
        a, rz, b = qrps.noise._edge_kicks(ang)
        # the blocks, then the after_window and before_window edges
        for kicks in (a, rz, b, rz + b, a + rz):
            schedules.append(qrps.noise._kick_schedule(kicks, settings_.rabi))
    builder = qrps.noise._ScheduleBuilder(settings_.rabi)
    builder.zz_window(settings_.tau, (math.pi / 2) / settings_.tau, ())
    schedules.append(builder.build())
    for dd_sets in (1, 10, 12):
        builder = qrps.noise._ScheduleBuilder(settings_.rabi)
        builder.zz_window(settings_.tau, 0.0, ur14_phases() * dd_sets)
        schedules.append(builder.build())
    for schedule in schedules:
        model = schedule_unitary(schedule, NoiseModel(detuning_ratio=delta), "pulse")
        assert np.max(np.abs(model - _hamiltonian_oracle(schedule, delta))) <= 1e-12


def test_in_pulse_coupling_gap_falls_linearly_with_pulse_width():
    # The pulse path's one approximation: each pi pair acts at its center
    # while the coupling runs on, so the coupling's rotation inside a pulse
    # is lost.  At zero detuning the model's default UR14 window is the ideal
    # gate, and its gap to the oracle is the size the noise docstrings quote;
    # the gap falls tenfold with each tenfold rise of the Rabi frequency.
    assert window_infidelity(0.0) < 1e-12
    gaps = []
    for scale in (1, 10, 100, 1000):
        settings_ = PulseSettings(rabi=PulseSettings().rabi * scale)
        oracle = _hamiltonian_oracle(_window_schedule(settings_, settings_.tau, ur14_phases() * settings_.dd_sets), 0.0)
        gaps.append(phase_aligned_distance(oracle, window_unitary(settings_, 0.0, "pulse", ur14_phases())))
        if scale == 1:
            infidelity = 1.0 - abs(np.trace(u_zz(math.pi / 2).conj().T @ oracle)) / 4.0
    assert round(gaps[0], 2) == 0.60 and round(infidelity, 3) == 0.070
    assert all(9.0 <= a / b <= 11.0 for a, b in zip(gaps, gaps[1:]))


def test_kick_factor_is_kronecker_product_of_rotations():
    # Zero-width pulses at t = 0 on an empty timeline carry no background
    # phase, so the schedule's unitary is the kick factor alone.
    rng = np.random.default_rng(12)
    i2 = np.eye(2)
    for _ in range(50):
        (a1, a2), (p1, p2) = rng.uniform(0.0, 2 * math.pi, (2, 2))
        delta = rng.uniform(-0.5, 0.5)
        r1, r2 = rotation(a1, p1, delta), rotation(a2, p2, delta)
        cases = [
            (((1, a1, p1), (2, a2, p2)), np.kron(r1, r2)),
            (((2, a2, p2), (1, a1, p1)), np.kron(r1, r2)),
            (((1, a1, p1),), np.kron(r1, i2)),
            (((2, a2, p2),), np.kron(i2, r2)),
            (((1, a1, p1), (1, a2, p2)), np.kron(r2 @ r1, i2)),  # one qubit's pulses compose in order
        ]
        for pulses, want in cases:
            sched = PulseSchedule(tuple(RFPulse(q, a, p, 0.0, 0.0) for q, a, p in pulses), (), 1.0, 0.0)
            for fidelity in ("pulse", "gate"):
                u = schedule_unitary(sched, NoiseModel(detuning_ratio=delta), fidelity)
                assert np.max(np.abs(u - want)) <= 1e-15


def test_schedule_rejects_pulse_centers_outside_timeline():
    # The covered-time sweep needs the kick times between 0 and t_end.
    for start in (-1.0, 0.8):
        with pytest.raises(ValueError, match=r"within \[0, t_end\]"):
            PulseSchedule((RFPulse(1, 1.0, 0.0, start, 0.5),), (), 1.0, 1.0)


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
        simulate_schedule(sched, NoiseModel(dephasing_exponent=GAMMA_TAU), QuantumState(np.eye(4)[0]))


def test_simulate_schedule_applies_step_dephasing():
    ang = angles_from_distribution(0.1, 0.5)
    sched = compile_diffusion_schedule(ang)
    noise = NoiseModel(dephasing_exponent=GAMMA_TAU)
    state = QuantumState(np.diag([1.0, 0.0, 0.0, 0.0]))
    out = simulate_schedule(sched, noise, state)
    oracle = collective_dephasing(
        apply(state, schedule_unitary(sched, noise, "pulse")).data, GAMMA_TAU
    )
    np.testing.assert_allclose(out.data, oracle, atol=1e-12)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
def test_noisy_distribution_composes_each_layout_once(monkeypatch, k):
    # Start from a cold memo, so that earlier tests cannot hide a composition.
    qrps.noise._step_middles.cache_clear()
    calls = {"compile_diffusion_schedule": 0, "window_unitary": 0}
    for name in calls:
        original = getattr(qrps.noise, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(qrps.noise, name, counting)
    composed = []
    original_unitary = qrps.noise.schedule_unitary

    def recording(schedule, *args, **kwargs):
        composed.append(schedule)
        return original_unitary(schedule, *args, **kwargs)

    monkeypatch.setattr(qrps.noise, "schedule_unitary", recording)
    noise = NoiseModel(detuning_ratio=-0.04, dephasing_exponent=GAMMA_TAU)
    noisy_distribution(0.1, 1.0, noise, "pulse", k=k, settings=PulseSettings(dd_sets=3))
    # the timeline record is not composed; one window serves every step
    assert calls["compile_diffusion_schedule"] == 0
    assert calls["window_unitary"] == min(k, 1)
    windows = [s for s in composed if s.segments]
    edges = [s for s in composed if not s.segments]
    # the window composes UR14's shortest phase period once: 7 pi pairs
    assert [len(s.pulses) for s in windows] == [14] * min(k, 1)
    # the preparation, then the kick blocks a, b and rz once each
    assert [len(s.pulses) for s in edges] == [2] + [2, 2, 6] * min(k, 1)
    # Same calibration, detuning and fidelity at another epsilon: the window
    # and rz come from the memo, and only the preparation, a and b are
    # composed.
    composed.clear()
    noisy_distribution(0.05, 1.0, noise, "pulse", k=k, settings=PulseSettings(dd_sets=3))
    assert [len(s.pulses) for s in composed] == [2] + [2, 2] * min(k, 1)
    # another detuning composes its window and rz again
    composed.clear()
    noisy_distribution(0.05, 1.0, replace(noise, detuning_ratio=-0.03), "pulse", k=k,
                       settings=PulseSettings(dd_sets=3))
    assert [len(s.pulses) for s in composed if s.segments] == [14] * min(k, 1)
    assert [len(s.pulses) for s in composed if not s.segments] == [2] + [2, 2, 6] * min(k, 1)


# 14-phase cycles whose shortest phase periods are 7, 1, 14 and 2 pairs.
PERIOD_CYCLES = {
    "ur14": DD_CYCLES["ur14"],
    "cpmg": DD_CYCLES["cpmg"],
    "aperiodic": tuple(0.3 * i for i in range(14)),
    "period 2": (0.0, math.pi / 2) * 7,
}

# Detunings with both signed zeros, which are equal memo keys.
DELTAS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.08, 0.08))


def _twin(delta):
    # The other signed zero, or the value itself: an equal memo key.
    return -delta if delta == 0.0 else delta


@settings(derandomize=True, max_examples=60, deadline=None)
@given(delta=DELTAS, dd_sets=st.integers(0, 12), fidelity=st.sampled_from(["pulse", "gate"]))
@example(delta=-0.0, dd_sets=10, fidelity="pulse")
@example(delta=0.0, dd_sets=10, fidelity="gate")
def test_memoised_blocks_equal_a_recomposition(delta, dd_sets, fidelity):
    # A memo entry warmed by the twin key is byte for byte what a cold memo
    # composes, and it cannot be written to.
    settings_ = PulseSettings(dd_sets=dd_sets)
    middles = qrps.noise._step_middles
    middles(settings_, _twin(delta), fidelity)
    warm = middles(settings_, delta, fidelity)
    middles.cache_clear()
    cold = middles(settings_, delta, fidelity)
    for w, c in zip(warm, cold, strict=True):
        assert w.tobytes() == c.tobytes()
        for u in (w, c):
            with pytest.raises(ValueError, match="read-only"):
                u[0, 0] = 1.0


def test_array_detuning_reads_the_memo_as_its_float():
    # The memo hashes its key, so the noise path passes it the detuning as a
    # float; a 0-d array still gives the float's result.
    as_array = NoiseModel(detuning_ratio=np.array(-0.04))
    as_float = NoiseModel(detuning_ratio=-0.04)
    assert noisy_distribution(0.1, noise=as_array).tobytes() == noisy_distribution(0.1, noise=as_float).tobytes()
    assert window_infidelity(np.array(-0.04)) == window_infidelity(-0.04)


@pytest.mark.parametrize("scheme", ["ur14", "cpmg", "none"])
def test_window_unitary_takes_any_cycle_sequence_and_any_real_detuning(scheme):
    # No memo hashes its arguments: a list cycle and a 0-d array detuning give
    # the tuple and float call's window, in a new array the caller may write.
    settings_ = PulseSettings(dd_sets=3)
    reference = window_unitary(settings_, -0.04, "pulse", DD_CYCLES[scheme])
    for delta, cycle in ((np.array(-0.04), DD_CYCLES[scheme]), (-0.04, list(DD_CYCLES[scheme])),
                         (np.array(-0.04), list(DD_CYCLES[scheme]))):
        u = window_unitary(settings_, delta, "pulse", cycle)
        assert u.tobytes() == reference.tobytes()
        u[0, 0] = 0.0
    assert reference.flags.writeable


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    eps=st.floats(0.005, 1.0),
    ratio=st.floats(0.0, 10.0),
    delta=DELTAS,
    gamma=st.floats(0.0, 2.0),
    fidelity=st.sampled_from(["pulse", "gate"]),
    dd_sets=st.integers(0, 12),
    k=st.integers(1, 7),
)
def test_noisy_distribution_is_the_same_on_a_cold_or_warm_memo(eps, ratio, delta, gamma, fidelity, dd_sets, k):
    settings_ = PulseSettings(dd_sets=dd_sets)
    noise = NoiseModel(detuning_ratio=delta, dephasing_exponent=gamma)
    qrps.noise._step_middles.cache_clear()
    cold = noisy_distribution(eps, ratio, noise, fidelity, k=k, settings=settings_)
    qrps.noise._step_middles.cache_clear()
    # warm the memo from another epsilon and the twin detuning
    noisy_distribution(0.3, 1.0, replace(noise, detuning_ratio=_twin(delta)), fidelity, k=1, settings=settings_)
    warm = noisy_distribution(eps, ratio, noise, fidelity, k=k, settings=settings_)
    assert cold.tobytes() == warm.tobytes()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    delta=st.floats(-0.08, 0.08),
    dd_sets=st.integers(0, 12),
    fidelity=st.sampled_from(["pulse", "gate"]),
    scheme=st.sampled_from(list(PERIOD_CYCLES)),
)
@example(delta=-0.04, dd_sets=10, fidelity="pulse", scheme="aperiodic")
@example(delta=-0.04, dd_sets=10, fidelity="gate", scheme="period 2")
def test_window_set_power_matches_direct_composition(delta, dd_sets, fidelity, scheme):
    cycle = PERIOD_CYCLES[scheme]
    settings_ = PulseSettings(dd_sets=dd_sets)
    power = window_unitary(settings_, delta, fidelity, cycle)
    direct = schedule_unitary(
        _window_schedule(settings_, settings_.tau, cycle * dd_sets), NoiseModel(detuning_ratio=delta), fidelity
    )
    assert np.max(np.abs(power - direct)) <= 1e-12


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    theta1=st.floats(0.0, 2 * math.pi),
    theta2=st.floats(-2 * math.pi, 2 * math.pi),
    delta=st.floats(-0.08, 0.08),
    dd_sets=st.integers(0, 12),
    fidelity=st.sampled_from(["pulse", "gate"]),
)
def test_split_steps_match_composed_timeline(theta1, theta2, delta, dd_sets, fidelity):
    ang = PreparationAngles(theta1, theta2)
    settings_ = PulseSettings(dd_sets=dd_sets)
    noise = NoiseModel(detuning_ratio=delta)
    steps = qrps.noise._step_unitaries(ang, noise, fidelity, settings_, k=2)
    for step, layout in zip(steps, LAYOUTS, strict=True):
        timeline = schedule_unitary(compile_diffusion_schedule(ang, settings_, layout), noise, fidelity)
        assert np.max(np.abs(step - timeline)) <= 1e-12


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


def _reference_noisy_distribution(eps, ratio, noise, fidelity, k, settings_):
    """The noisy run on the full timelines: each step conjugates, then dephases, in numpy."""
    ang = StationaryDistribution.from_epsilon_ratio(eps, ratio).angles()
    psi = _reference_schedule_unitary(compile_preparation_schedule(ang, settings_), noise, fidelity)[:, 0]
    rho = np.outer(psi, psi.conj())
    for j in range(k):
        u = schedule_unitary(compile_diffusion_schedule(ang, settings_, LAYOUTS[j % 2]), noise, fidelity)
        rho = collective_dephasing(u @ rho @ u.conj().T, noise.dephasing_exponent)
    p = probabilities(QuantumState(rho))
    return detection_confusion(p, noise.detect_bright_as_dark, noise.detect_dark_as_bright)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    eps=st.floats(0.005, 1.0),
    ratio=st.floats(0.0, 10.0),
    delta=st.floats(-0.08, 0.08, exclude_min=True, exclude_max=True),
    gamma=st.floats(0.0, 3.0),
    fidelity=st.sampled_from(["pulse", "gate"]),
    dd_sets=st.integers(0, 12),
    k=st.integers(0, 7),
)
def test_noisy_distribution_matches_the_full_timelines_with_dephasing(eps, ratio, delta, gamma, fidelity, dd_sets, k):
    # The split blocks, the adjoints taken once and the dephasing mask give
    # the run that conjugates by each step's whole timeline and dephases it.
    noise = NoiseModel(detuning_ratio=delta, dephasing_exponent=gamma, detect_bright_as_dark=0.06,
                       detect_dark_as_bright=0.03)
    settings_ = PulseSettings(dd_sets=dd_sets)
    fast = noisy_distribution(eps, ratio, noise, fidelity, k=k, settings=settings_)
    slow = _reference_noisy_distribution(eps, ratio, noise, fidelity, k, settings_)
    assert np.max(np.abs(fast - slow)) <= 1e-12


# --------------------------------------------------------- window robustness

def test_ur14_beats_unprotected_window():
    for delta in (0.02, 0.04, 0.08, -0.02, -0.04, -0.08):
        assert window_infidelity(delta, scheme="ur14") < window_infidelity(delta, scheme="none")


def test_ur14_beats_constant_phase_train():
    for delta in (0.04, 0.08, -0.04, -0.08):
        assert window_infidelity(delta, scheme="ur14") < window_infidelity(delta, scheme="cpmg")


@pytest.mark.parametrize("fidelity", ["pulse", "gate"])
def test_unprotected_window_ignores_decoupling_sets(fidelity):
    # "none" is the bare window over tau, whatever the calibration's set count.
    for delta in (0.04, -0.015, -0.08):
        values = {window_infidelity(delta, PulseSettings(dd_sets=d), "none", fidelity) for d in (0, 1, 10, 12)}
        assert len(values) == 1


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


def test_run_noisy_jitter_sets_the_simulated_epsilon_and_keeps_k_nominal(monkeypatch):
    # noisy_distribution derives the preparation and the diffusion angles
    # from the epsilon it is given, so the jitter reaches both.
    seen = []
    original = qrps.noise.noisy_distribution

    def recorded(epsilon, *args, k, **kwargs):
        seen.append((epsilon, k))
        return original(epsilon, *args, k=k, **kwargs)

    monkeypatch.setattr(qrps.noise, "noisy_distribution", recorded)
    res = run_noisy(0.2742, 1.0, NoiseModel(prep_epsilon_jitter=0.05), "gate", shots=800,
                    rng=np.random.default_rng(2))
    jittered = 0.2742 + np.random.default_rng(2).uniform(-0.05, 0.05)
    assert jittered != 0.2742
    assert seen == [(jittered, 1)]
    assert res.epsilon == 0.2742 and res.k == 1
    run_noisy(0.2742, 1.0, NOISELESS, "gate", shots=800, rng=np.random.default_rng(2))
    assert seen[1] == (0.2742, 1)


@pytest.mark.parametrize("epsilon", [0.0987, 0.0504, 0.0305, 0.0204, 0.0146, 0.0110])
def test_run_noisy_k_ignores_a_jitter_that_moves_optimal_k(epsilon):
    # At seed 2 the drawn epsilon has a larger optimal k than the nominal one,
    # so a k taken after the draw would show in the result.
    w = 0.8 * epsilon
    jittered = epsilon + np.random.default_rng(2).uniform(-w, w)
    assert optimal_k(jittered) > optimal_k(epsilon)
    res = run_noisy(epsilon, 1.0, NoiseModel(prep_epsilon_jitter=w), "gate", shots=100,
                    rng=np.random.default_rng(2))
    assert res.epsilon == epsilon and res.k == optimal_k(epsilon)


@pytest.mark.parametrize("shots", [2.5, math.inf, math.nan, 0])
def test_shot_count_that_is_not_an_integer_fails_before_any_draw(shots):
    # Before this check run_noisy(shots=2.5) sampled 2 shots and reported
    # 2.5, and shots=inf raised OverflowError inside numpy.
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    p = np.array([0.4, 0.3, 0.2, 0.1])
    message = "shots must be >= 1 and an integer"
    with pytest.raises(ValueError, match=message):
        run_noisy(0.1, 1.0, NoiseModel(prep_epsilon_jitter=0.01), "gate", shots=shots, rng=rng)
    with pytest.raises(ValueError, match=message):
        result_from_distribution(1, 0.1, 1.0, p, shots, rng)
    with pytest.raises(ValueError, match=message):
        result_from_distribution(1, 0.1, 1.0, p, shots)
    assert rng.bit_generator.state == state


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
