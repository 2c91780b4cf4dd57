"""One input contract for the public API.

Every count a public callable or record receives must be an integer at or
above its minimum (a circuit run's diffusion count also at most MAX_K), and
every float must lie in its range, so NaN and +-inf fail too.  A bad value
raises ValueError (ConfigError in the harness) whose message names the
parameter, before any draw from the caller's generator.
"""

import math
import re

import numpy as np
import pytest

from qrps import (
    ConfigError,
    HarnessConfig,
    NoiseModel,
    PulseSchedule,
    PulseSettings,
    QuantumState,
    RFPulse,
    StationaryDistribution,
    angles_from_distribution,
    classical_cost_curve,
    collective_dephasing,
    deliberate,
    detection_confusion,
    fit_linear,
    fit_power_law,
    grover_success,
    learning_demo,
    noisy_distribution,
    optimal_k,
    probabilities,
    run_ideal,
    run_noisy,
    sample_outcomes,
    window_infidelity,
)
from qrps.deliberation import MAX_K
from qrps.noise import result_from_distribution


def counts(minimum):
    """A non-integer, NaN, inf and the count just below ``minimum``."""
    return [2.5, math.nan, math.inf, minimum - 1]


def floats(*out_of_range):
    """NaN, +-inf and the given out-of-range values."""
    return [math.nan, math.inf, -math.inf, *out_of_range]


JITTER = NoiseModel(prep_epsilon_jitter=0.01)
POINTS = [(1.0, 1.0), (2.0, 3.0), (3.0, 4.0)]

# A circuit run loops over at most MAX_K diffusion steps.  These valid epsilons
# have an optimal_k above it (1000689 for 6.16e-13); the smallest epsilon whose
# optimal_k is within it is SMALLEST_EPSILON.
TINY_EPSILONS = [1e-300, 6.16e-13]
SMALLEST_EPSILON = 6.168490413693854e-13


# (callable, parameter, the name its message must hold, bad values, call(value, rng), error)
CASES = [
    ("QuantumState", "data", "norm", floats(2.0), lambda v, rng: QuantumState(np.array([v, 0, 0, 0])), ValueError),
    ("QuantumState", "data's eigenvalues", "semidefinite", [-0.5],
     lambda v, rng: QuantumState(np.diag([1.0 - v, v, 0.0, 0.0])), ValueError),
    # A weight within the state check's tolerance but beyond the read-out's roundoff clip.
    ("probabilities", "state", "probability", [-5e-11],
     lambda v, rng: probabilities(QuantumState(np.diag([1.0 - v, v, 0.0, 0.0]))), ValueError),
    ("sample_outcomes", "shots", "shots", counts(1),
     lambda v, rng: sample_outcomes(np.full(4, 0.25), v, rng), ValueError),
    ("sample_outcomes", "dist", "dist", [*floats(-5.0), -1e-9],
     lambda v, rng: sample_outcomes(np.array([v, 0.5, 0.25, 0.25]), 10, rng), ValueError),
    ("StationaryDistribution", "a", "probabilities", floats(-0.1),
     lambda v, rng: StationaryDistribution(np.array([v, 0.5, 0.25, 0.25])), ValueError),
    ("from_epsilon_ratio", "epsilon", "epsilon", floats(1.5),
     lambda v, rng: StationaryDistribution.from_epsilon_ratio(v, 1.0), ValueError),
    ("from_epsilon_ratio", "ratio", "ratio", floats(-1.0),
     lambda v, rng: StationaryDistribution.from_epsilon_ratio(0.1, v), ValueError),
    ("angles_from_distribution", "epsilon", "epsilon", floats(1.5),
     lambda v, rng: angles_from_distribution(v, 0.5), ValueError),
    ("angles_from_distribution", "a00_fraction", "a00/epsilon", floats(1.5),
     lambda v, rng: angles_from_distribution(0.1, v), ValueError),
    ("optimal_k", "epsilon", "epsilon", floats(0.0), lambda v, rng: optimal_k(v), ValueError),
    ("grover_success", "epsilon", "epsilon", floats(1.5), lambda v, rng: grover_success(v, 1), ValueError),
    ("grover_success", "k", "k", counts(0), lambda v, rng: grover_success(0.1, v), ValueError),
    ("run_ideal", "epsilon", "epsilon", floats(0.0), lambda v, rng: run_ideal(v), ValueError),
    ("run_ideal", "ratio", "ratio", floats(-1.0), lambda v, rng: run_ideal(0.1, v), ValueError),
    ("run_ideal", "k", "k", [*counts(0), MAX_K + 1], lambda v, rng: run_ideal(0.1, 1.0, v), ValueError),
    ("run_ideal", "epsilon's k", "k", TINY_EPSILONS, lambda v, rng: run_ideal(v), ValueError),
    ("classical_cost_curve", "runs", "runs", counts(1),
     lambda v, rng: classical_cost_curve([0.1], v, rng), ValueError),
    ("classical_cost_curve", "epsilons", "epsilon", floats(0.0),
     lambda v, rng: classical_cost_curve([0.1, v], 10, rng), ValueError),
    ("deliberate", "dist", "dist", [StationaryDistribution(np.array([0.0, 0.0, 0.5, 0.5]))],
     lambda v, rng: deliberate(v, "quantum", rng), ValueError),
    ("deliberate", "backend", "backend", ["Quantum", ""],
     lambda v, rng: deliberate(StationaryDistribution.from_epsilon_ratio(0.1, 1.0), v, rng), ValueError),
    ("learning_demo", "num_actions", "num_actions", counts(2),
     lambda v, rng: learning_demo(v, {0}, "quantum", rng), ValueError),
    ("learning_demo", "backend", "backend", ["Quantum", ""],
     lambda v, rng: learning_demo(5, {0}, v, rng), ValueError),
    ("HarnessConfig", "shots", "shots", counts(1), lambda v, rng: HarnessConfig(shots=v), ConfigError),
    ("HarnessConfig", "seed", "seed", counts(0), lambda v, rng: HarnessConfig(seed=v), ConfigError),
    ("HarnessConfig", "classical_runs", "classical_runs", counts(1),
     lambda v, rng: HarnessConfig(classical_runs=v), ConfigError),
    ("HarnessConfig", "ratio", "ratio", floats(-1.0), lambda v, rng: HarnessConfig(ratio=v), ConfigError),
    ("HarnessConfig", "epsilons", "epsilon", floats(0.0),
     lambda v, rng: HarnessConfig(epsilons=(0.1, v)), ConfigError),
    ("HarnessConfig", "epsilons' k", "k", TINY_EPSILONS, lambda v, rng: HarnessConfig(epsilons=(0.1, v)), ConfigError),
    ("HarnessConfig", "detunings", "detuning", floats(1.0),
     lambda v, rng: HarnessConfig(detunings=(0.0, v)), ConfigError),
    ("HarnessConfig", "fidelity", "fidelity", ["Pulse", ""], lambda v, rng: HarnessConfig(fidelity=v), ConfigError),
    ("fit_linear", "points", "points", floats(), lambda v, rng: fit_linear([*POINTS, (v, 1.0)]), ValueError),
    ("fit_linear", "errors", "errors", [*floats(-0.1), [0.1], [0.1] * 5],
     lambda v, rng: fit_linear(POINTS, v if isinstance(v, list) else [0.1, v, 0.1]), ValueError),
    ("fit_power_law", "points", "points", floats(0.0),
     lambda v, rng: fit_power_law([(0.1, v), (0.2, 5.0), (0.3, 3.0)]), ValueError),
    ("NoiseModel", "detuning_ratio", "detuning_ratio", floats(1.0),
     lambda v, rng: NoiseModel(detuning_ratio=v), ValueError),
    ("NoiseModel", "dephasing_exponent", "dephasing_exponent", floats(-0.1),
     lambda v, rng: NoiseModel(dephasing_exponent=v), ValueError),
    ("NoiseModel", "detect_bright_as_dark", "detect_bright_as_dark", floats(1.0),
     lambda v, rng: NoiseModel(detect_bright_as_dark=v), ValueError),
    ("NoiseModel", "detect_dark_as_bright", "detect_dark_as_bright", floats(1.0),
     lambda v, rng: NoiseModel(detect_dark_as_bright=v), ValueError),
    ("NoiseModel", "prep_epsilon_jitter", "prep_epsilon_jitter", floats(-0.1),
     lambda v, rng: NoiseModel(prep_epsilon_jitter=v), ValueError),
    ("PulseSettings", "rabi", "rabi", floats(0.0), lambda v, rng: PulseSettings(rabi=v), ValueError),
    ("PulseSettings", "tau", "tau", floats(0.0), lambda v, rng: PulseSettings(tau=v), ValueError),
    ("PulseSettings", "dd_sets", "dd_sets", counts(0), lambda v, rng: PulseSettings(dd_sets=v), ValueError),
    ("PulseSchedule", "pulses", "qubit 1", [0.25], lambda v, rng: PulseSchedule(
        (RFPulse(1, 1.0, 0.0, 0.0, 0.5), RFPulse(1, 1.0, 0.0, v, 0.5)), (), 1.0, 1.0), ValueError),
    ("result_from_distribution", "p", "flagged", [0.0],
     lambda v, rng: result_from_distribution(1, 0.1, 1.0, np.array([v, v, 0.5, 0.5]), 100), RuntimeError),
    ("collective_dephasing", "gamma_tau", "gamma_tau", floats(-0.1),
     lambda v, rng: collective_dephasing(np.eye(4) / 4, v), ValueError),
    ("detection_confusion", "d_bright", "d_bright", floats(1.0),
     lambda v, rng: detection_confusion(np.full(4, 0.25), v, 0.0), ValueError),
    ("detection_confusion", "d_dark", "d_dark", floats(1.0),
     lambda v, rng: detection_confusion(np.full(4, 0.25), 0.0, v), ValueError),
    ("detection_confusion", "dist", "dist", floats(-1e-9),
     lambda v, rng: detection_confusion(np.array([v, 0.5, 0.25, 0.25]), 0.0, 0.0), ValueError),
    ("window_infidelity", "delta", "detuning_ratio", floats(1.0), lambda v, rng: window_infidelity(v), ValueError),
    ("noisy_distribution", "epsilon", "epsilon", floats(0.0), lambda v, rng: noisy_distribution(v), ValueError),
    ("noisy_distribution", "ratio", "ratio", floats(-1.0), lambda v, rng: noisy_distribution(0.1, v), ValueError),
    ("noisy_distribution", "k", "k", [*counts(0), MAX_K + 1], lambda v, rng: noisy_distribution(0.1, k=v), ValueError),
    ("noisy_distribution", "epsilon's k", "k", TINY_EPSILONS, lambda v, rng: noisy_distribution(v), ValueError),
    # With a preparation jitter run_noisy draws before it simulates, so each
    # of its checks must come before that draw; optimal_k checks epsilon.
    ("run_noisy", "epsilon", "epsilon", floats(1.5),
     lambda v, rng: run_noisy(v, 1.0, JITTER, "gate", rng=rng), ValueError),
    ("run_noisy", "ratio", "ratio", floats(-1.0),
     lambda v, rng: run_noisy(0.1, v, JITTER, "gate", rng=rng), ValueError),
    ("run_noisy", "epsilon's k", "k", TINY_EPSILONS, lambda v, rng: run_noisy(v, 1.0, JITTER, "gate", rng=rng), ValueError),
    ("run_noisy", "shots", "shots", counts(1),
     lambda v, rng: run_noisy(0.1, 1.0, JITTER, "gate", shots=v, rng=rng), ValueError),
    ("run_noisy", "fidelity", "fidelity", ["Pulse", ""], lambda v, rng: run_noisy(0.1, 1.0, JITTER, v, rng=rng), ValueError),
    ("noisy_distribution", "fidelity", "fidelity", ["Pulse", ""],
     lambda v, rng: noisy_distribution(0.1, fidelity=v), ValueError),
    # with no diffusion step only the preparation reads the fidelity
    ("noisy_distribution", "fidelity without steps", "fidelity", ["Pulse", ""],
     lambda v, rng: noisy_distribution(0.1, fidelity=v, k=0), ValueError),
    ("window_infidelity", "fidelity", "fidelity", ["Pulse", ""],
     lambda v, rng: window_infidelity(0.0, fidelity=v), ValueError),
    ("window_infidelity", "scheme", "scheme", ["UR14", ""], lambda v, rng: window_infidelity(0.0, scheme=v), ValueError),
]

# The rows whose parameter is a float range, each checked by qsim._check_range.
RANGES = {
    ("from_epsilon_ratio", "epsilon"), ("from_epsilon_ratio", "ratio"),
    ("angles_from_distribution", "epsilon"), ("angles_from_distribution", "a00_fraction"),
    ("optimal_k", "epsilon"), ("grover_success", "epsilon"), ("run_ideal", "epsilon"), ("run_ideal", "ratio"),
    ("classical_cost_curve", "epsilons"),
    ("HarnessConfig", "ratio"), ("HarnessConfig", "epsilons"), ("HarnessConfig", "detunings"),
    ("NoiseModel", "detuning_ratio"), ("NoiseModel", "dephasing_exponent"), ("NoiseModel", "detect_bright_as_dark"),
    ("NoiseModel", "detect_dark_as_bright"), ("NoiseModel", "prep_epsilon_jitter"),
    ("PulseSettings", "rabi"), ("PulseSettings", "tau"), ("collective_dephasing", "gamma_tau"),
    ("detection_confusion", "d_bright"), ("detection_confusion", "d_dark"), ("window_infidelity", "delta"),
    ("noisy_distribution", "epsilon"), ("noisy_distribution", "ratio"), ("run_noisy", "epsilon"), ("run_noisy", "ratio"),
}


@pytest.mark.parametrize(
    "call, named, value, error",
    [pytest.param(call, named, value, error, id=f"{name}-{param}-{value!r}")
     for name, param, named, values, call, error in CASES for value in values],
)
def test_bad_public_input_fails_before_any_draw(call, named, value, error):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(error, match=rf"(?<![\w-]){re.escape(named)}(?![\w-])"):
        call(value, rng)
    assert rng.bit_generator.state == state


def test_weights_below_zero_by_roundoff_are_accepted():
    dist = np.array([-1e-13, 0.5, 0.25, 0.25])
    assert sample_outcomes(dist, 10, np.random.default_rng(0)).sum() == 10
    assert np.allclose(detection_confusion(dist, 0.0, 0.0), dist)


@pytest.mark.parametrize(
    "call, named, value, error",
    [pytest.param(call, named, value, error, id=f"{name}-{param}-{value!r}")
     for name, param, named, values, call, error in CASES if (name, param) in RANGES for value in values],
)
def test_bad_float_reads_must_lie_in_its_interval(call, named, value, error):
    with pytest.raises(error, match=rf"(?<![\w-]){re.escape(named)} must lie in [\[(]"):
        call(value, np.random.default_rng(0))


TINY = math.nextafter(0.0, 1.0)
BELOW_ONE = math.nextafter(1.0, 0.0)
ABOVE_ONE = math.nextafter(1.0, 2.0)
HUGE = math.nextafter(math.inf, 0.0)
RHO = np.eye(4) / 4
P = np.full(4, 0.25)

# (range, call(value), values just inside its ends, values just beyond them):
# a closed end is accepted and the float beyond it rejected; an open end is
# rejected and the float next to it accepted.
ENDS = [
    ("optimal_k-epsilon", optimal_k, [TINY, 1.0], [0.0, ABOVE_ONE]),
    ("grover_success-epsilon", lambda v: grover_success(v, 1), [0.0, 1.0], [-TINY, ABOVE_ONE]),
    ("from_epsilon_ratio-epsilon", lambda v: StationaryDistribution.from_epsilon_ratio(v, 0.0),
     [TINY, 1.0], [0.0, ABOVE_ONE]),
    ("from_epsilon_ratio-ratio", lambda v: StationaryDistribution.from_epsilon_ratio(1.0, v),
     [0.0, HUGE], [-TINY, math.inf]),
    ("angles_from_distribution-epsilon", lambda v: angles_from_distribution(v, 0.0), [TINY, 1.0], [0.0, ABOVE_ONE]),
    ("angles_from_distribution-a00/epsilon", lambda v: angles_from_distribution(1.0, v),
     [0.0, 1.0], [-TINY, ABOVE_ONE]),
    ("classical_cost_curve-epsilon", lambda v: classical_cost_curve([v], 2, np.random.default_rng(0)),
     [1.0], [0.0, ABOVE_ONE]),
    ("NoiseModel-detuning_ratio", lambda v: NoiseModel(detuning_ratio=v), [-BELOW_ONE, BELOW_ONE], [-1.0, 1.0]),
    *((f"NoiseModel-{name}", lambda v, name=name: NoiseModel(**{name: v}), [0.0, HUGE], [-TINY, math.inf])
      for name in ("dephasing_exponent", "prep_epsilon_jitter")),
    *((f"NoiseModel-{name}", lambda v, name=name: NoiseModel(**{name: v}), [0.0, BELOW_ONE], [-TINY, 1.0])
      for name in ("detect_bright_as_dark", "detect_dark_as_bright")),
    *((f"PulseSettings-{name}", lambda v, name=name: PulseSettings(**{name: v, "dd_sets": 0}),
       [TINY, HUGE], [0.0, math.inf]) for name in ("rabi", "tau")),
    ("HarnessConfig-ratio", lambda v: HarnessConfig(ratio=v), [0.0, HUGE], [-TINY, math.inf]),
    # Beside its range, a config's epsilon must keep optimal_k within MAX_K.
    ("HarnessConfig-epsilon", lambda v: HarnessConfig(epsilons=(v, 0.1)), [SMALLEST_EPSILON, 1.0], [0.0, ABOVE_ONE]),
    ("HarnessConfig-detuning", lambda v: HarnessConfig(detunings=(0.0, v)), [-BELOW_ONE, BELOW_ONE], [-1.0, 1.0]),
    ("collective_dephasing-gamma_tau", lambda v: collective_dephasing(RHO, v), [0.0, HUGE], [-TINY, math.inf]),
    ("detection_confusion-d_bright", lambda v: detection_confusion(P, v, 0.0), [0.0, BELOW_ONE], [-TINY, 1.0]),
    ("detection_confusion-d_dark", lambda v: detection_confusion(P, 0.0, v), [0.0, BELOW_ONE], [-TINY, 1.0]),
]


@pytest.mark.parametrize(
    "call, value, inside",
    [pytest.param(call, value, inside, id=f"{label}-{value!r}")
     for label, call, ins, beyond in ENDS for inside, values in ((True, ins), (False, beyond)) for value in values],
)
def test_every_range_keeps_its_closed_ends(call, value, inside):
    if inside:
        call(value)
    else:
        with pytest.raises(ValueError, match=r" must lie in [\[(]"):
            call(value)


def test_the_step_cap_holds_for_circuit_runs_only():
    # The cap bounds the loops of run_ideal_distribution and noisy_distribution
    # and is a message in the count form; the closed-form readers take any k.
    with pytest.raises(ValueError, match=re.escape(f"k must be in [0, {MAX_K}] and an integer, got {MAX_K + 1}")):
        run_ideal(0.1, 1.0, MAX_K + 1)
    assert optimal_k(SMALLEST_EPSILON) == MAX_K
    with pytest.raises(ConfigError, match=re.escape(f"k must be in [0, {MAX_K}]")):
        HarnessConfig(epsilons=(math.nextafter(SMALLEST_EPSILON, 0.0), 0.1, 0.2))
    assert optimal_k(1e-300) > MAX_K
    assert 0.0 <= grover_success(1e-300, optimal_k(1e-300)) <= 1.0
    dist = StationaryDistribution.from_epsilon_ratio(1e-300, 1.0)
    assert deliberate(dist, "quantum", np.random.default_rng(0)).k == optimal_k(1e-300)
