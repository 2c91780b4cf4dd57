"""Physical noise models and pulse-level simulation of the diffusion step.

The noise model covers four experimentally motivated channels: a relative
detuning of the RF drive (tilting every rotation axis and causing a static
Z drift on idle qubits), exponential dephasing per diffusion step, a
per-qubit detection confusion matrix, and a preparation jitter on the
flagged weight that the preparation and diffusion angles are derived from.

A pulse schedule lays out the diffusion step on a timeline: sequential RF
pulses for the single-qubit rotations (Z rotations expanded into their
three-pulse realizations) and a ZZ-coupling window protected by trains of
pi pulses applied simultaneously on both qubits.  Every window, full or
one decoupling set, is laid by one primitive: a ZZ segment with one pi pair
per phase at equidistant interior times.  A window's ZZ angle is the
integral of its segments' couplings, which composition reads; every window
is laid at the coupling pi/(2 tau).  Simulation applies each pulse as its
integrated unitary at the pulse center, so each pi pair acts at its center
while the ZZ coupling runs on unchanged: the coupling's rotation inside a
pulse is neglected.  At the default calibration and zero detuning that
puts the UR14 window 0.60 (phase-aligned max-entry distance; infidelity
7.0e-2) from a time-domain integration, a gap that falls tenfold with each
tenfold rise of the Rabi frequency.  The detuning drift acts over all time
not covered by a qubit's own pulses.  At gate fidelity pulses are treated as zero-width; at
pulse fidelity their angle/rabi durations displace the drift accordingly.

A schedule without ZZ segments (the preparation, the kick blocks) composes
per qubit, as one Kronecker product of two 2x2 chains.  A coupled one is
composed in one pass over its sorted kick times, interval by interval:
scalar background phases (each qubit's paused drift from a two-pointer sweep
over its own pulses) scale the rows of the product, and each distinct kick
is built once as one Kronecker factor.

A step splits exactly wherever no pulse crosses the split, because the
background phases depend only on interval lengths.  The coupling window is
periodic: its pulses share one spacing, and its phases repeat with the
cycle's shortest repeating unit (7 pi pairs of UR14, 1 of CPMG).  So the
window is one unit raised to the power of its repeats (``window_unitary``).
A step has three kick blocks (``_edge_kicks``): ``a`` before the window,
the Z-rotation identities ``rz``, and ``b`` after it.  The two layouts are
``b @ rz @ window @ a`` and ``b @ window @ rz @ a``, and the steps apply
them alternately.  Their middles ``rz @ window`` and ``window @ rz`` depend
only on the calibration, the detuning and the fidelity, so one memo
(``_step_middles``) holds both per such key; a noisy run composes ``a`` and
``b`` once each.  ``compile_diffusion_schedule`` lays the same blocks and
the full window end to end as the step's timeline.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .circuits import StationaryDistribution, _rotation_entries, rotation, rz_pulse_identity, u_zz
from .deliberation import MAX_K, optimal_k
from .qsim import _I2, QuantumState, _check_count, _check_range, _check_weights, _frozen, apply, kron2, probabilities, sample_outcomes

TWO_PI = 2.0 * math.pi

ZZ_TARGET_ANGLE = math.pi / 2

# Zero-width ("gate") or finite-width ("pulse") pulses; see ``schedule_unitary``.
FIDELITIES = ("gate", "pulse")

# Entries kept by the memo of the steps' angle-free middles; a campaign uses
# a few (calibration, detuning, fidelity) keys.
MEMO_SIZE = 64


@dataclass(frozen=True)
class NoiseModel:
    """Detuning, dephasing, detection, and preparation-jitter parameters."""

    detuning_ratio: float = 0.0
    dephasing_exponent: float = 0.0
    detect_bright_as_dark: float = 0.0
    detect_dark_as_bright: float = 0.0
    prep_epsilon_jitter: float = 0.0

    def __post_init__(self):
        _check_range("detuning_ratio", self.detuning_ratio, -1.0, 1.0, "()")
        for name in ("dephasing_exponent", "prep_epsilon_jitter"):
            _check_range(name, getattr(self, name), 0.0, math.inf, "[)")
        for name in ("detect_bright_as_dark", "detect_dark_as_bright"):
            _check_range(name, getattr(self, name), 0.0, 1.0, "[)")


NOISELESS = NoiseModel()


def ur14_phases() -> tuple[float, ...]:
    """The 14 error-cancelling pulse phases; the list is its own reverse."""
    s = math.pi / 7.0
    return (0.0, 6 * s, 4 * s, 8 * s, 4 * s, 6 * s, 0.0, 0.0, 6 * s, 4 * s, 8 * s, 4 * s, 6 * s, 0.0)


@dataclass(frozen=True)
class PulseSettings:
    """Drive calibration used when compiling schedules.

    The defaults are the calibration of the trapped-ion setup the model
    reproduces: Rabi frequency 20.92 kHz, conditional-evolution time 4.24 ms,
    ten decoupling sets per window.  The window's ZZ coupling is pi/(2 tau),
    which gives the ZZ angle pi/2 (J = 59 Hz at the default tau).

    Feasibility is checked once, here: the window's dd_sets cycles of
    ``ur14_phases()`` pi pulses, each pi/rabi long, must fit in tau.
    """

    rabi: float = TWO_PI * 20.92e3
    tau: float = 4.24e-3
    dd_sets: int = 10

    def __post_init__(self):
        for name in ("rabi", "tau"):
            _check_range(name, getattr(self, name), 0.0, math.inf, "()")
        _check_count("dd_sets", self.dd_sets, 0)
        if self.dd_sets and math.pi / self.rabi > self.tau / (len(ur14_phases()) * self.dd_sets):
            raise ValueError("pi pulses do not fit the decoupling spacing")


DEFAULT_SETTINGS = PulseSettings()


def collective_dephasing(rho: np.ndarray, gamma_tau: float) -> np.ndarray:
    """Correlated variant: every coherence of the register shrinks by e^{-gamma_tau}.

    Models both qubits seeing the same fluctuating field, with gamma_tau the
    measured contrast decay of the register over one diffusion step.  Maps
    a 4x4 density array to a 4x4 density array; it is an entrywise product.
    """
    if np.shape(rho) != (4, 4):
        raise ValueError("dephasing requires the density representation")
    _check_range("gamma_tau", gamma_tau, 0.0, math.inf, "[)")
    lam = math.exp(-gamma_tau)
    return rho * lam + np.diag(np.diag(rho)) * (1.0 - lam)


def detection_confusion(dist: np.ndarray, d_bright: float, d_dark: float) -> np.ndarray:
    """Apply the single-qubit readout map independently to both qubits.

    The map's columns are true dark/bright, its rows read dark/bright.  Rates
    lie in [0, 1); ``dist`` entries are finite and >= -PROB_CLIP_ATOL.
    """
    _check_range("d_bright", d_bright, 0.0, 1.0, "[)")
    _check_range("d_dark", d_dark, 0.0, 1.0, "[)")
    p = np.asarray(dist, dtype=float)
    _check_weights("dist", p)
    m = np.array([[1.0 - d_dark, d_bright], [d_dark, 1.0 - d_bright]])
    return kron2(m, m) @ p


class RFPulse(NamedTuple):
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


class ZZSegment(NamedTuple):
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
    rabi: float
    t_end: float

    def __post_init__(self):
        for q in (1, 2):
            spans = sorted((p.start, p.end) for p in self.pulses if p.qubit == q)
            for (a0, a1), (b0, _) in zip(spans, spans[1:]):
                if b0 < a1 - 1e-15:
                    raise ValueError(f"overlapping pulses on qubit {q}")
        if not all(0.0 <= p.center <= self.t_end for p in self.pulses):
            raise ValueError("pulse centers must lie within [0, t_end]")


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

    def kicks(self, kicks):
        # Each kick's (qubit, angle, phase) pulses start together, each on
        # its own qubit's drive tone; the cursor advances by the longest.
        for pulses in kicks:
            t0 = self.t
            for qubit, angle, phase in pulses:
                angle, phase = _normalized(angle, phase)
                if angle < 1e-15:
                    continue
                duration = angle / self.rabi
                self.pulses.append(RFPulse(qubit, angle, phase, t0, duration))
                self.t = max(self.t, t0 + duration)

    def zz_window(self, duration: float, coupling: float, phases: tuple[float, ...]):
        # One ZZ segment with one pi pair per phase at equidistant interior
        # times (half-spacing end margins).  The settings guarantee that the
        # pi pulses fit the spacing.
        start = self.t
        self.segments.append(ZZSegment(start, duration, coupling))
        if phases:
            spacing = duration / len(phases)
            width = math.pi / self.rabi
            for i, phase in enumerate(phases):
                center = start + (i + 0.5) * spacing
                for qubit in (1, 2):
                    self.pulses.append(RFPulse(qubit, math.pi, phase, center - 0.5 * width, width))
        self.t += duration

    def build(self) -> PulseSchedule:
        return PulseSchedule(tuple(self.pulses), tuple(self.segments), self.rabi, self.t)


LAYOUTS = ("after_window", "before_window")

# The phase cycle of each decoupling scheme; "none" leaves the window bare.
DD_CYCLES = {"ur14": ur14_phases(), "cpmg": (0.0,) * len(ur14_phases()), "none": ()}


# The two Z-rotation identities (rightmost factor first), whose matching
# pulse durations run concurrently as three kicks.
_RZ_KICKS = tuple(((1, a1, p1), (2, a2, p2))
                  for (a1, p1), (a2, p2) in zip(reversed(rz_pulse_identity(+1)), reversed(rz_pulse_identity(-1))))


def _edge_kicks(angles):
    """The three kick blocks of one diffusion step: ``a``, ``rz`` and ``b``.

    Each kick is a tuple of (qubit, angle, phase) pulses that start together.
    ``a`` and ``b`` hold the sequential amplitude pulses that precede and
    follow the coupling window.  ``rz`` is ``_RZ_KICKS``: it does not depend
    on the angles and sits on the side of the window a layout names.
    """
    hp = math.pi / 2
    a = (((1, angles.theta1, hp),), ((2, -angles.theta2, hp),))
    b = (((1, angles.theta1, hp),), ((2, angles.theta2, hp),))
    return a, _RZ_KICKS, b


def _kick_schedule(kicks, rabi: float) -> PulseSchedule:
    b = _ScheduleBuilder(rabi)
    b.kicks(kicks)
    return b.build()


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

    This is the step's whole timeline: ``_edge_kicks``' blocks ``a``,
    ``rz`` and ``b`` in layout order around the full window.
    ``noisy_distribution`` composes the same blocks and window without
    laying them end to end.
    """
    if rz_placement not in LAYOUTS:
        raise ValueError(f"unknown rz placement {rz_placement!r}")
    a, rz, b = _edge_kicks(angles)
    before = rz_placement == "before_window"
    builder = _ScheduleBuilder(settings.rabi)
    builder.kicks(a + rz if before else a)
    builder.zz_window(settings.tau, ZZ_TARGET_ANGLE / settings.tau, ur14_phases() * settings.dd_sets)
    builder.kicks(b if before else rz + b)
    return builder.build()


def compile_preparation_schedule(angles, settings: PulseSettings = DEFAULT_SETTINGS) -> PulseSchedule:
    """Two-pulse schedule preparing the stationary state from |00>."""
    hp = math.pi / 2
    return _kick_schedule([((2, angles.theta2, hp),), ((1, angles.theta1, hp),)], settings.rabi)


def _covered_time(schedule: PulseSchedule, qubit: int, times: list[float]) -> list[float]:
    """Time ``qubit``'s pulses have played by each of the nondecreasing ``times``.

    A two-pointer sweep over the qubit's pulses in start order (they do not
    overlap): by ``t``, the pulses begun earlier plus the played part of the
    last, or of a zero-length pulse at -inf before the first.
    """
    spans = sorted((p.start, p.duration) for p in schedule.pulses if p.qubit == qubit)
    covered, i, before, start, duration = [], 0, 0.0, -math.inf, 0.0
    for t in times:
        while i < len(spans) and spans[i][0] <= t:
            before += duration
            start, duration = spans[i]
            i += 1
        covered.append(before + min(t - start, duration))
    return covered


def _qubit_chain(schedule: PulseSchedule, qubit: int, delta: float, fidelity: str) -> np.ndarray:
    """``qubit``'s 2x2 factor of a segment-free schedule: its kicks and paused drift, in complex scalars."""
    pulses = sorted((p for p in schedule.pulses if p.qubit == qubit), key=lambda p: p.center)
    edges = [0.0, *(p.center for p in pulses), schedule.t_end]
    cov = _covered_time(schedule, qubit, edges) if fidelity == "pulse" else [0.0] * len(edges)
    scale = 0.5 * delta * schedule.rabi
    z = [cmath.exp(1j * scale * ((b - a) - (cb - ca))) for a, b, ca, cb in zip(edges, edges[1:], cov, cov[1:])]
    m00, m01, m10, m11 = z[0], 0j, 0j, z[0].conjugate()
    for p, w in zip(pulses, z[1:]):
        # diag(w, 1/w) @ rotation @ m (a stable sort keeps a shared centre's pulses in order)
        r00, r01, r10, r11 = _rotation_entries(p.angle, p.phase, delta)
        m00, m01, m10, m11 = (w * (r00 * m00 + r01 * m10), w * (r00 * m01 + r01 * m11),
                              (r10 * m00 + r11 * m10) / w, (r10 * m01 + r11 * m11) / w)
    return np.array([[m00, m01], [m10, m11]])


def schedule_unitary(
    schedule: PulseSchedule, noise: NoiseModel, fidelity: str = "pulse"
) -> np.ndarray:
    """Compose the schedule into a single two-qubit unitary.

    Pulses act as integrated detuned ``rotation``s at their center times, and
    the pulses sharing a center form one kick.  Between kicks the diagonal
    background accumulates: the ZZ coupling, which never pauses, and the
    detuning drift, which pauses on a qubit while one of its own pulses
    plays (that part of the drift lives inside the pulse's tilted axis).
    ``fidelity`` selects zero-width ("gate") pulses, whose drift covers the
    whole interval, or finite-width ("pulse") drift bookkeeping.

    Without ZZ segments the qubits evolve apart: one ``kron2`` of each
    qubit's ``_qubit_chain``.  A coupled schedule takes one pass over the
    sorted kick times: each interval's phase angles come from Python floats
    (segment overlaps, each qubit's drift less its covered time) and scale
    the rows of the product; each distinct kick is built once as one
    Kronecker product of the two qubits' rotations.
    """
    if fidelity not in FIDELITIES:
        raise ValueError(f"unknown fidelity level {fidelity!r}")
    delta = noise.detuning_ratio
    if not schedule.segments:
        return kron2(_qubit_chain(schedule, 1, delta, fidelity), _qubit_chain(schedule, 2, delta, fidelity))
    kicks: dict[float, list[tuple[int, float, float]]] = {}
    for p in schedule.pulses:
        kicks.setdefault(p.center, []).append((p.qubit, p.angle, p.phase))
    times = sorted(kicks)
    edges = [0.0, *times, schedule.t_end]
    cov1, cov2 = (_covered_time(schedule, q, edges) if fidelity == "pulse" else [0.0] * len(edges) for q in (1, 2))
    scale = 0.5 * delta * schedule.rabi
    angles = []
    for i, (a, b) in enumerate(zip(edges, edges[1:])):
        zz = 0.0
        for s in schedule.segments:
            zz += 0.5 * s.coupling * max(0.0, min(b, s.end) - max(a, s.start))
        d1 = scale * ((b - a) - (cov1[i + 1] - cov1[i]))
        d2 = scale * ((b - a) - (cov2[i + 1] - cov2[i]))
        # Basis order |00>,|01>,|10>,|11>; Z eigenvalue +1 for bit 0.
        angles.append((zz + d1 + d2, -zz + d1 - d2, -zz - d1 + d2, zz - d1 - d2))
    phase = np.exp(1j * np.array(angles))
    factors: dict[tuple, np.ndarray] = {}
    u = np.diag(phase[0])
    for t, background in zip(times, phase[1:]):
        key = tuple(kicks[t])
        if key not in factors:
            # Qubit 1's rotation (x) qubit 2's; zero-width pulses sharing a qubit and center compose.
            r = [_I2, _I2]
            for qubit, angle, ph in key:
                rot = rotation(angle, ph, delta)
                r[qubit - 1] = rot if r[qubit - 1] is _I2 else rot @ r[qubit - 1]
            factors[key] = kron2(*r)
        u = background[:, None] * (factors[key] @ u)
    return u


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
    state = apply(state, schedule_unitary(schedule, noise, fidelity))
    if noise.dephasing_exponent > 0.0:
        state = QuantumState(collective_dephasing(state.data, noise.dephasing_exponent))
    return state


def window_unitary(settings: PulseSettings, delta: float, fidelity: str, cycle: Sequence[float]) -> np.ndarray:
    """The coupling window of ``settings`` at relative detuning ``delta``.

    The cycle's shortest phase period (7 pi pairs of UR14, 1 of CPMG) is
    laid once over tau/reps, with reps = dd_sets * len(cycle) / period, so
    its pulse spacing and end margins are the full window's.  It is composed
    with ``schedule_unitary`` and raised to the power reps (the window is
    exactly periodic; see the module docstring).  Without decoupling (an
    empty cycle or dd_sets = 0) it is the bare coupling over tau.  ``cycle``
    is any sequence of phases; each call composes a new, writable array.
    """
    n = len(cycle)
    period = next((p for p in range(1, n + 1) if cycle == cycle[:p] * (n // p)), n)
    reps = settings.dd_sets * n // period if n else 0
    b = _ScheduleBuilder(settings.rabi)
    b.zz_window(settings.tau / max(reps, 1), ZZ_TARGET_ANGLE / settings.tau, cycle[:period] if reps else ())
    u = schedule_unitary(b.build(), NoiseModel(detuning_ratio=delta), fidelity)
    return np.linalg.matrix_power(u, reps) if reps > 1 else u


@functools.lru_cache(maxsize=MEMO_SIZE)
def _step_middles(settings: PulseSettings, delta: float, fidelity: str) -> tuple[np.ndarray, np.ndarray]:
    """The two layouts' angle-free middles ``rz @ window`` and ``window @ rz`` (UR14's window), memoised
    per (calibration, float detuning ``delta``, fidelity) key, ``MEMO_SIZE`` entries, as read-only arrays."""
    window = window_unitary(settings, delta, fidelity, ur14_phases())
    rz = schedule_unitary(_kick_schedule(_RZ_KICKS, settings.rabi), NoiseModel(detuning_ratio=delta), fidelity)
    return _frozen(rz @ window), _frozen(window @ rz)


def window_infidelity(
    delta: float,
    settings: PulseSettings = DEFAULT_SETTINGS,
    scheme: str = "ur14",
    fidelity: str = "pulse",
) -> float:
    """Infidelity of the (possibly protected) ZZ window against the ideal gate.

    ``scheme`` picks the cycle in ``DD_CYCLES`` for ``window_unitary``'s set
    power; "none" is the bare window.  Each pi pair acts at its center and
    the coupling's rotation inside a pulse is neglected, so the value holds
    the pulses' detuning errors but not that in-pulse coupling error.  At
    the default calibration and zero detuning that error is an infidelity
    of 7.0e-2 (phase-aligned distance 0.60) against a time-domain
    integration of the UR14 window, where this returns ~1e-14.
    """
    if scheme not in DD_CYCLES:
        raise ValueError(f"unknown scheme {scheme!r}")
    u = window_unitary(settings, delta, fidelity, DD_CYCLES[scheme])
    target = u_zz(ZZ_TARGET_ANGLE)
    return 1.0 - abs(np.trace(target.conj().T @ u)) / 4.0


def _step_unitaries(angles, noise: NoiseModel, fidelity: str, settings: PulseSettings, k: int):
    """The two layouts' steps, ``b @ rz @ window @ a`` and ``b @ window @ rz @ a``.

    ``a`` and ``b`` are composed here, once each, around the memoised
    ``_step_middles`` (nothing is composed for k = 0).
    """
    if not k:
        return []
    a_kicks, _, b_kicks = _edge_kicks(angles)
    a, b = (schedule_unitary(_kick_schedule(kicks, settings.rabi), noise, fidelity) for kicks in (a_kicks, b_kicks))
    return [b @ m @ a for m in _step_middles(settings, float(noise.detuning_ratio), fidelity)]


def noisy_distribution(
    epsilon: float,
    ratio: float = 1.0,
    noise: NoiseModel = NOISELESS,
    fidelity: str = "pulse",
    k: int | None = None,
    settings: PulseSettings = DEFAULT_SETTINGS,
) -> np.ndarray:
    """Exact read-out distribution of the noisy algorithm.

    ``k``, an integer in [0, ``MAX_K``], defaults to the optimal count for ``epsilon``.
    Successive diffusion steps alternate the two commuting layouts of the
    Z-rotation blocks (supercycle symmetrization; see
    ``compile_diffusion_schedule``), ``b @ rz @ window @ a`` and
    ``b @ window @ rz @ a``.  Their middles come from one memo
    (``_step_middles``), and ``a`` and ``b`` are composed once per call
    (nothing for k = 0); each layout's adjoint is taken once.  Every step is
    followed by the step dephasing, a product with one mask read once per
    call (``collective_dephasing`` of all ones).  The density array evolves
    unvalidated and is validated once, as the final state.
    """
    if k is None:
        k = optimal_k(epsilon)
    _check_count("k", k, 0, maximum=MAX_K)
    angles = StationaryDistribution.from_epsilon_ratio(epsilon, ratio).angles()
    prep = schedule_unitary(compile_preparation_schedule(angles, settings), noise, fidelity)
    rho = prep[:, :1] @ prep[:, :1].conj().T  # the prepared |00><00|
    steps = [(u, u.conj().T) for u in _step_unitaries(angles, noise, fidelity, settings, k)]
    mask = collective_dephasing(np.ones((4, 4)), noise.dephasing_exponent)
    for j in range(k):
        u, u_adj = steps[j % 2]
        rho = (u @ rho @ u_adj) * mask
    p = probabilities(QuantumState(rho))
    return detection_confusion(p, noise.detect_bright_as_dark, noise.detect_dark_as_bright)


class RunResult(NamedTuple):
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
    _check_count("shots", shots, 1)
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
    shots: int = 1600,
    *,
    rng: np.random.Generator,
    settings: PulseSettings = DEFAULT_SETTINGS,
) -> RunResult:
    """Simulate one configuration of the noisy algorithm and sample shots.

    The diffusion count is ``optimal_k`` of the nominal epsilon.  A
    preparation jitter, when enabled, draws the epsilon that
    ``noisy_distribution`` simulates, which sets the angles of both the
    preparation and the diffusion steps; only k stays nominal.  The nominal
    point, the fidelity and every count are checked before that draw.
    """
    _check_count("shots", shots, 1)
    k = optimal_k(epsilon)
    _check_count("k", k, 0, maximum=MAX_K)
    if fidelity not in FIDELITIES:
        raise ValueError(f"unknown fidelity level {fidelity!r}")
    prepared = epsilon
    if noise.prep_epsilon_jitter > 0.0:
        StationaryDistribution.from_epsilon_ratio(epsilon, ratio)  # checks the nominal point
        w = noise.prep_epsilon_jitter
        prepared = min(max(epsilon + rng.uniform(-w, w), 1e-12), 1.0)
    p = noisy_distribution(prepared, ratio, noise, fidelity, k=k, settings=settings)
    return result_from_distribution(k, epsilon, ratio, p, shots, rng)
