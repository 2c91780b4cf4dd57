"""Physical noise models and pulse-level simulation of the diffusion step.

The noise model covers four experimentally motivated channels: a relative
detuning of the RF drive (tilting every rotation axis and causing a static
Z drift on idle qubits), exponential dephasing per diffusion step, a
per-qubit detection confusion matrix, and a preparation jitter on the
flagged weight.

A pulse schedule lays out the diffusion step on a timeline: sequential RF
pulses for the single-qubit rotations (Z rotations expanded into their
three-pulse realizations) and a ZZ-coupling window protected by trains of
pi pulses applied simultaneously on both qubits.  Simulation applies each
pulse as its integrated unitary at the pulse center; the ZZ coupling stays
active throughout the window (simultaneous ideal pi pairs commute with it),
while the detuning drift acts over all time not covered by a qubit's own
pulses.  At gate fidelity pulses are treated as zero-width; at pulse
fidelity their angle/rabi durations displace the drift accordingly.

A schedule is composed in one pass: the kick times are sorted once, the
diagonal background phases of all intervals between kicks are computed
together (each qubit's paused drift from a cumulative sweep over its own
pulses), and each distinct kick is built once as a 4x4 factor.  A noisy run
compiles and composes only the step layouts its k steps use, each once, and
applies them alternately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import StationaryDistribution, rz_pulse_identity, u_zz
from .deliberation import optimal_k
from .qsim import QuantumState, apply, on_qubit, probabilities, sample_outcomes, zero_state

TWO_PI = 2.0 * math.pi

ZZ_TARGET_ANGLE = math.pi / 2
ZZ_CONSISTENCY_RTOL = 1e-3


@dataclass(frozen=True)
class NoiseModel:
    """Detuning, dephasing, detection, and preparation-jitter parameters."""

    detuning_ratio: float = 0.0
    dephasing_exponent: float = 0.0
    detect_bright_as_dark: float = 0.0
    detect_dark_as_bright: float = 0.0
    prep_epsilon_jitter: float = 0.0

    def __post_init__(self):
        if abs(self.detuning_ratio) >= 1.0:
            raise ValueError("detuning ratio must satisfy |delta| < 1")
        if self.dephasing_exponent < 0.0:
            raise ValueError("dephasing exponent must be nonnegative")
        for name in ("detect_bright_as_dark", "detect_dark_as_bright"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.prep_epsilon_jitter < 0.0:
            raise ValueError("preparation jitter must be nonnegative")


NOISELESS = NoiseModel()


@dataclass(frozen=True)
class PulseSettings:
    """Drive and coupling calibration used when compiling schedules.

    The defaults are the calibration of the trapped-ion setup the model
    reproduces: Rabi frequency 20.92 kHz, conditional-evolution time 4.24 ms,
    J coupling 59 Hz, ten sets of 14 decoupling pulses per window.

    Feasibility is checked once, here: coupling * tau must lie within
    ``ZZ_CONSISTENCY_RTOL`` of pi/2, and the window's 14 * dd_sets pi pulses,
    each pi/rabi long, must fit in tau.
    """

    rabi: float = TWO_PI * 20.92e3
    tau: float = 4.24e-3
    coupling: float = TWO_PI * 59.0
    dd_sets: int = 10

    def __post_init__(self):
        if self.rabi <= 0.0 or self.tau <= 0.0 or self.coupling <= 0.0:
            raise ValueError("rabi, tau and coupling must be positive")
        if self.dd_sets < 0:
            raise ValueError("dd_sets must be nonnegative")
        if abs(self.coupling * self.tau / ZZ_TARGET_ANGLE - 1.0) > ZZ_CONSISTENCY_RTOL:
            raise ValueError(
                f"coupling*tau = {self.coupling * self.tau:.6f} inconsistent with target {ZZ_TARGET_ANGLE:.6f}"
            )
        if self.dd_sets and math.pi / self.rabi > self.tau / (14 * self.dd_sets):
            raise ValueError("pi pulses do not fit the decoupling spacing")


DEFAULT_SETTINGS = PulseSettings()


def detuned_rotation(theta: float, phi: float, delta: float) -> np.ndarray:
    """Rotation with the drive axis tilted by a relative detuning.

    Returns exp[i(theta/2)((X cos(phi) - Y sin(phi)) + delta Z)]; the pulse
    duration stays fixed by the nominal theta, so the effective rotation
    angle grows by sqrt(1 + delta^2).
    """
    g = math.sqrt(1.0 + delta * delta)
    half = 0.5 * theta * g
    e = np.exp(1j * phi)
    axis = np.array([[delta, e], [e.conjugate(), -delta]]) / g
    return math.cos(half) * np.eye(2) + 1j * math.sin(half) * axis


def collective_dephasing(rho: np.ndarray, gamma_tau: float) -> np.ndarray:
    """Correlated variant: every coherence of the register shrinks by e^{-gamma_tau}.

    Models both qubits seeing the same fluctuating field, with gamma_tau the
    measured contrast decay of the register over one diffusion step.  Maps
    a 4x4 density array to a 4x4 density array.
    """
    if np.shape(rho) != (4, 4):
        raise ValueError("dephasing requires the density representation")
    if gamma_tau < 0.0:
        raise ValueError("gamma_tau must be nonnegative")
    lam = math.exp(-gamma_tau)
    return rho * lam + np.diag(np.diag(rho)) * (1.0 - lam)


def detection_confusion(dist: np.ndarray, d_bright: float, d_dark: float) -> np.ndarray:
    """Apply the single-qubit readout map independently to both qubits.

    The map's columns are true dark/bright, its rows read dark/bright.
    """
    m = np.array([[1.0 - d_dark, d_bright], [d_dark, 1.0 - d_bright]])
    return np.kron(m, m) @ np.asarray(dist, dtype=float)


def ur14_phases() -> tuple[float, ...]:
    """The 14 error-cancelling pulse phases; the list is its own reverse."""
    s = math.pi / 7.0
    return (0.0, 6 * s, 4 * s, 8 * s, 4 * s, 6 * s, 0.0, 0.0, 6 * s, 4 * s, 8 * s, 4 * s, 6 * s, 0.0)


@dataclass(frozen=True)
class RFPulse:
    """One timed RF pulse; the stored angle is nonnegative."""

    qubit: int
    angle: float
    phase: float
    start: float
    duration: float

    @property
    def center(self) -> float:
        return self.start + 0.5 * self.duration

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class ZZSegment:
    """Interval of active ZZ coupling with angular strength ``coupling``."""

    start: float
    duration: float
    coupling: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class PulseSchedule:
    """Timed pulse and coupling events realizing one circuit fragment."""

    pulses: tuple[RFPulse, ...]
    segments: tuple[ZZSegment, ...]
    total_zz_angle: float
    rabi: float
    t_end: float

    def __post_init__(self):
        acc = sum(s.coupling * s.duration for s in self.segments)
        if abs(acc - self.total_zz_angle) > 1e-9:
            raise ValueError("segment couplings do not integrate to the stated ZZ angle")
        for q in (1, 2):
            spans = sorted((p.start, p.end) for p in self.pulses if p.qubit == q)
            for (a0, a1), (b0, _) in zip(spans, spans[1:]):
                if b0 < a1 - 1e-15:
                    raise ValueError(f"overlapping pulses on qubit {q}")


def _normalized(angle: float, phase: float) -> tuple[float, float]:
    # A negative rotation angle is realized as a positive pulse with the
    # opposite drive phase; the detuning tilt must not flip with it.
    if angle < 0.0:
        angle, phase = -angle, phase + math.pi
    return angle, phase % TWO_PI


class _ScheduleBuilder:
    def __init__(self, rabi: float):
        self.rabi = rabi
        self.t = 0.0
        self.pulses: list[RFPulse] = []
        self.segments: list[ZZSegment] = []
        self.total_zz = 0.0

    def kick(self, *pulses: tuple[int, float, float]):
        # The (qubit, angle, phase) pulses start together, each on its own
        # qubit's drive tone; the cursor advances by the longest of them.
        t0 = self.t
        for qubit, angle, phase in pulses:
            angle, phase = _normalized(angle, phase)
            if angle < 1e-15:
                continue
            duration = angle / self.rabi
            self.pulses.append(RFPulse(qubit, angle, phase, t0, duration))
            self.t = max(self.t, t0 + duration)

    def rz_pair(self, sign1: int, sign2: int):
        # Rightmost factor of each three-pulse identity fires first; the
        # blocks have matching pulse durations and run concurrently.
        for (a1, p1), (a2, p2) in zip(
            reversed(rz_pulse_identity(sign1)), reversed(rz_pulse_identity(sign2))
        ):
            self.kick((1, a1, p1), (2, a2, p2))

    def zz_window(self, tau: float, dd_sets: int, cycle: tuple[float, ...]):
        # The settings guarantee that the pi pulses fit the spacing.
        start = self.t
        # Calibrated so the segment integrates to the target angle exactly.
        self.segments.append(ZZSegment(start, tau, ZZ_TARGET_ANGLE / tau))
        self.total_zz += ZZ_TARGET_ANGLE
        count = dd_sets * len(cycle)
        if count:
            spacing = tau / count
            duration = math.pi / self.rabi
            for i in range(count):
                center = start + (i + 0.5) * spacing
                phase = cycle[i % len(cycle)]
                for qubit in (1, 2):
                    self.pulses.append(RFPulse(qubit, math.pi, phase, center - 0.5 * duration, duration))
        self.t += tau

    def build(self) -> PulseSchedule:
        return PulseSchedule(tuple(self.pulses), tuple(self.segments), self.total_zz, self.rabi, self.t)


def compile_diffusion_schedule(
    angles, settings: PulseSettings = DEFAULT_SETTINGS, rz_placement: str = "after_window"
) -> PulseSchedule:
    """Expand one diffusion step into timed RF pulses and a ZZ window.

    The single-qubit factors fire in circuit order (rightmost first) and the
    Z rotations are replaced by their three-pulse identities.  Blocks with
    matching pulse durations on the two qubits (the Z-rotation identities,
    like the decoupling pulses) play concurrently on both drive tones; the
    unequal-duration amplitude pulses run sequentially.  The ZZ window
    carries ``settings.dd_sets`` repetitions of the 14-pulse phase cycle on
    both qubits at equidistant interior times with half-spacing end margins.

    The Z-rotation blocks commute with the coupling window, so the step can
    equivalently be laid out with them after the window (default) or before
    it (``rz_placement="before_window"``); repeated steps alternate the two
    arrangements, supercycle-style, which echoes out the leading coherent
    error the blocks pick up under a detuned drive.
    """
    if rz_placement not in ("after_window", "before_window"):
        raise ValueError(f"unknown rz placement {rz_placement!r}")
    b = _ScheduleBuilder(settings.rabi)
    hp = math.pi / 2
    b.kick((1, angles.theta1, hp))
    b.kick((2, -angles.theta2, hp))
    if rz_placement == "before_window":
        b.rz_pair(+1, -1)
        b.zz_window(settings.tau, settings.dd_sets, ur14_phases())
    else:
        b.zz_window(settings.tau, settings.dd_sets, ur14_phases())
        b.rz_pair(+1, -1)
    b.kick((1, angles.theta1, hp))
    b.kick((2, angles.theta2, hp))
    return b.build()


def compile_preparation_schedule(angles, settings: PulseSettings = DEFAULT_SETTINGS) -> PulseSchedule:
    """Two-pulse schedule preparing the stationary state from |00>."""
    b = _ScheduleBuilder(settings.rabi)
    b.kick((2, angles.theta2, math.pi / 2))
    b.kick((1, angles.theta1, math.pi / 2))
    return b.build()


def zz_window_schedule(
    settings: PulseSettings = DEFAULT_SETTINGS, scheme: str = "ur14"
) -> PulseSchedule:
    """The protected (or bare) coupling window alone, for fidelity studies."""
    cycles = {"ur14": ur14_phases(), "cpmg": (0.0,) * 14, "none": ur14_phases()}
    if scheme not in cycles:
        raise ValueError(f"unknown scheme {scheme!r}")
    b = _ScheduleBuilder(settings.rabi)
    dd_sets = 0 if scheme == "none" else settings.dd_sets
    b.zz_window(settings.tau, dd_sets, cycles[scheme])
    return b.build()


def _covered_time(schedule: PulseSchedule, qubit: int, t: np.ndarray) -> np.ndarray:
    """Time ``qubit``'s pulses have played by each of the times ``t``.

    A cumulative sweep over the qubit's pulses in start order, which the
    schedule guarantees do not overlap: the time covered by ``t`` is the
    duration of the pulses begun earlier plus the played part of the last.
    """
    spans = sorted((p.start, p.duration) for p in schedule.pulses if p.qubit == qubit)
    # A zero-length pulse at -inf makes every time follow some pulse.
    start, duration = np.array([(-math.inf, 0.0), *spans]).T
    before = np.concatenate(([0.0], np.cumsum(duration)[:-1]))
    i = np.searchsorted(start, t, side="right") - 1
    return before[i] + np.minimum(t - start[i], duration[i])


def schedule_unitary(
    schedule: PulseSchedule, noise: NoiseModel, fidelity: str = "pulse"
) -> np.ndarray:
    """Compose the schedule into a single two-qubit unitary.

    Pulses act as integrated detuned rotations at their center times, and
    the pulses sharing a center form one kick.  Between kicks the diagonal
    background accumulates: the ZZ coupling, which never pauses, and the
    detuning drift, which pauses on a qubit while one of its own pulses
    plays (that part of the drift lives inside the pulse's tilted axis).
    ``fidelity`` selects zero-width ("gate") pulses, whose drift covers the
    whole interval, or finite-width ("pulse") drift bookkeeping.

    The composition is one pass: the kick times are sorted once, the
    background phases of all intervals come from one vectorised exponential
    and act as row scalings, and each distinct kick is built once as a
    single 4x4 factor.
    """
    if fidelity not in ("pulse", "gate"):
        raise ValueError(f"unknown fidelity level {fidelity!r}")
    delta = noise.detuning_ratio
    kicks: dict[float, list[tuple[int, float, float]]] = {}
    for p in schedule.pulses:
        kicks.setdefault(p.center, []).append((p.qubit, p.angle, p.phase))
    times = sorted(kicks)
    edges = np.array([0.0, *times, schedule.t_end])
    a, b = edges[:-1], edges[1:]
    zz = np.zeros(len(a))
    for s in schedule.segments:
        zz += 0.5 * s.coupling * np.maximum(0.0, np.minimum(b, s.end) - np.maximum(a, s.start))
    drift = np.array([b - a, b - a])
    if fidelity == "pulse":
        for q in (1, 2):
            drift[q - 1] -= np.diff(_covered_time(schedule, q, edges))
    d1, d2 = 0.5 * delta * schedule.rabi * drift
    # Basis order |00>,|01>,|10>,|11>; Z eigenvalue +1 for bit 0.
    phase = np.exp(1j * np.stack([zz + d1 + d2, -zz + d1 - d2, -zz - d1 + d2, zz - d1 - d2], axis=1))
    factors: dict[tuple, np.ndarray] = {}
    u = np.eye(4, dtype=complex)
    for t, background in zip(times, phase):
        key = tuple(kicks[t])
        if key not in factors:
            f = np.eye(4, dtype=complex)
            for qubit, angle, ph in key:
                f = on_qubit(detuned_rotation(angle, ph, delta), qubit) @ f
            factors[key] = f
        u = factors[key] @ (background[:, None] * u)
    return phase[-1][:, None] * u


def simulate_schedule(
    schedule: PulseSchedule,
    noise: NoiseModel,
    state: QuantumState,
    fidelity: str = "pulse",
) -> QuantumState:
    """Evolve a state through one scheduled diffusion step under the noise model.

    Dephasing acts once per step, after the timed evolution, as the
    correlated register-level channel (both qubits see the same fluctuating
    field; the exponent is the measured contrast decay per step).  A nonzero
    dephasing exponent therefore requires a density operator.
    """
    if noise.dephasing_exponent > 0.0 and not state.is_density:
        raise ValueError("dephasing requires the density representation")
    state = apply(state, schedule_unitary(schedule, noise, fidelity))
    if noise.dephasing_exponent > 0.0:
        state = QuantumState(collective_dephasing(state.data, noise.dephasing_exponent))
    return state


def window_infidelity(
    delta: float,
    settings: PulseSettings = DEFAULT_SETTINGS,
    scheme: str = "ur14",
    fidelity: str = "pulse",
) -> float:
    """Infidelity of the (possibly protected) ZZ window against the ideal gate."""
    schedule = zz_window_schedule(settings, scheme)
    u = schedule_unitary(schedule, NoiseModel(detuning_ratio=delta), fidelity)
    target = u_zz(ZZ_TARGET_ANGLE)
    return 1.0 - abs(np.trace(target.conj().T @ u)) / 4.0


def noisy_distribution(
    epsilon: float,
    ratio: float = 1.0,
    noise: NoiseModel = NOISELESS,
    fidelity: str = "pulse",
    k: int | None = None,
    settings: PulseSettings = DEFAULT_SETTINGS,
) -> np.ndarray:
    """Exact read-out distribution of the noisy algorithm.

    ``k`` defaults to the optimal count for ``epsilon`` and must be
    nonnegative.  Successive diffusion steps alternate the two commuting
    layouts of the Z-rotation blocks (supercycle symmetrization; see
    ``compile_diffusion_schedule``); only the layouts the k steps use are
    compiled (none for k = 0), each is composed once, and the step dephasing
    follows every step.  The density array evolves unvalidated and is
    validated once, as the final state.
    """
    if k is None:
        k = optimal_k(epsilon)
    if k < 0:
        raise ValueError("k must be nonnegative")
    angles = StationaryDistribution.from_epsilon_ratio(epsilon, ratio).angles()
    prep = schedule_unitary(compile_preparation_schedule(angles, settings), noise, fidelity)
    rho = prep @ zero_state(mode="density").data @ prep.conj().T
    steps = [
        schedule_unitary(compile_diffusion_schedule(angles, settings, rz_placement=p), noise, fidelity)
        for p in ("after_window", "before_window")[:k]
    ]
    for j in range(k):
        u = steps[j % 2]
        rho = u @ rho @ u.conj().T
        if noise.dephasing_exponent > 0.0:
            rho = collective_dephasing(rho, noise.dephasing_exponent)
    p = probabilities(QuantumState(rho))
    return detection_confusion(p, noise.detect_bright_as_dark, noise.detect_dark_as_bright)


@dataclass(frozen=True)
class RunResult:
    """One experiment configuration: shot counts and derived quantities."""

    k: int
    epsilon: float
    a00: float
    a01: float
    shots: int
    counts: tuple[int, int, int, int]
    b00: float
    b01: float
    eps_tilde: float
    err_eps_tilde: float
    cost: float
    err_cost: float


def _expected_counts(p: np.ndarray, shots: int) -> np.ndarray:
    """Integer counts nearest to shots * p, summing exactly to shots."""
    scaled = np.asarray(p, dtype=float) * shots
    base = np.floor(scaled).astype(int)
    short = shots - int(base.sum())
    order = np.argsort(-(scaled - base), kind="stable")
    for i in range(short):
        base[order[i]] += 1
    return base


def result_from_distribution(
    k: int, epsilon: float, ratio: float, p: np.ndarray, shots: int, rng: np.random.Generator | None = None
) -> RunResult:
    """One configuration's result from its read-out distribution ``p``.

    With ``rng`` the shots are sampled and b00, b01 and eps_tilde are their
    frequencies, with binomial errors.  Without it the result is exact: the
    b's are taken from ``p``, their errors are zero, and the counts are the
    integers nearest to shots * p.
    """
    a01 = epsilon / (1.0 + ratio)
    if rng is None:
        counts, b = _expected_counts(p, shots), np.asarray(p, dtype=float)
    else:
        counts = sample_outcomes(p, shots, rng)
        b = counts / shots
    eps_tilde = b[0] + b[1]
    if eps_tilde <= 0.0:
        raise RuntimeError("no flagged outcomes observed; cost undefined")

    def err(q: float) -> float:
        return 0.0 if rng is None else math.sqrt(max(q * (1.0 - q), 0.0) / shots)

    return RunResult(
        k=k,
        epsilon=epsilon,
        a00=epsilon - a01,
        a01=a01,
        shots=shots,
        counts=tuple(int(c) for c in counts),
        b00=float(b[0]),
        b01=float(b[1]),
        eps_tilde=float(eps_tilde),
        err_eps_tilde=err(eps_tilde),
        cost=float((2 * k + 1) / eps_tilde),
        err_cost=float((2 * k + 1) * err(eps_tilde) / eps_tilde**2),
    )


def run_noisy(
    epsilon: float,
    ratio: float = 1.0,
    noise: NoiseModel = NOISELESS,
    fidelity: str = "pulse",
    k_override: int | None = None,
    shots: int = 1600,
    *,
    rng: np.random.Generator,
    settings: PulseSettings = DEFAULT_SETTINGS,
) -> RunResult:
    """Simulate one configuration of the noisy algorithm and sample shots.

    The diffusion count comes from the nominal epsilon (or ``k_override``);
    a preparation jitter, when enabled, shifts only the prepared state.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    k = k_override if k_override is not None else optimal_k(epsilon)
    prepared = epsilon
    if noise.prep_epsilon_jitter > 0.0:
        w = noise.prep_epsilon_jitter
        prepared = min(max(epsilon + rng.uniform(-w, w), 1e-12), 1.0)
    p = noisy_distribution(prepared, ratio, noise, fidelity, k=k, settings=settings)
    return result_from_distribution(k, epsilon, ratio, p, shots, rng)
