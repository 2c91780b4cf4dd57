"""Tests for the deliberation loop, cost model, and learning demo."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from qrps.circuits import FLAGGED, StationaryDistribution
from qrps.deliberation import (
    DeliberationRecord,
    LearningStep,
    _geometric,
    _uniform_index,
    classical_cost_curve,
    deliberate,
    grover_success,
    learning_demo,
    optimal_k,
    run_ideal,
    run_ideal_distribution,
)

TABLE_EPSILONS = {
    0.2742: 1,
    0.0987: 2,
    0.0504: 3,
    0.0305: 4,
    0.0204: 5,
    0.0146: 6,
    0.0110: 7,
}


# ----------------------------------------------------------------- optimal_k

def test_optimal_k_grid():
    for eps, k in TABLE_EPSILONS.items():
        assert optimal_k(eps) == k


def test_optimal_k_no_amplification_at_unity():
    assert optimal_k(1.0) == 0


def test_optimal_k_rejects_nonpositive():
    with pytest.raises(ValueError):
        optimal_k(0.0)
    with pytest.raises(ValueError):
        optimal_k(-0.1)
    with pytest.raises(ValueError):
        optimal_k(1.2)


# ------------------------------------------------------------ grover_success

def test_grover_success_values():
    assert abs(grover_success(0.2742, 1) - 0.9932) < 1e-4
    assert abs(grover_success(0.0504, 3) - 0.9998) < 1e-4
    for eps in (0.1, 0.5, 1.0):
        assert abs(grover_success(eps, 0) - eps) < 1e-15


# ------------------------------------------------------------------ run_ideal

def test_run_ideal_six_steps_even_split():
    p = run_ideal(0.0146, 1.0)
    assert abs(p[0] - 0.5000) < 5e-5
    assert abs(p[1] - 0.5000) < 5e-5


def test_run_ideal_preserves_small_ratio():
    a00, a01 = 0.00271, 0.27144
    p = run_ideal(a00 + a01, a00 / a01)
    assert abs(p[0] / p[1] - a00 / a01) < 1e-9
    assert abs(p[0] / p[1] - 0.01) < 2e-5


def test_run_ideal_trivial_epsilon_one():
    p = run_ideal(1.0, 1.0)
    np.testing.assert_allclose(p, [0.5, 0.5, 0.0, 0.0], atol=1e-12)


def test_run_ideal_matches_closed_form_oracle():
    rng = np.random.default_rng(123)
    for eps in rng.uniform(0.001, 1.0, 200):
        k = optimal_k(eps)
        p = run_ideal(eps, 1.0, k)
        assert abs((p[0] + p[1]) - grover_success(eps, k)) < 1e-9


def test_run_ideal_ratio_preservation_grid():
    for r in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        for k in (0, 1, 3, 6):
            p = run_ideal(0.05, r, k)
            assert abs(p[0] / p[1] - r) < 1e-9


# ----------------------------------------------------------------- deliberate

def test_deliberate_certain_classical():
    dist = StationaryDistribution.from_epsilon_ratio(1.0, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        rec = deliberate(dist, "classical", rng)
        assert rec.attempts == 1 and rec.up_calls == 1
        assert rec.action in (0, 1)


def test_deliberate_quantum_mean_cost():
    dist = StationaryDistribution.from_epsilon_ratio(0.2742, 1.0)
    rng = np.random.default_rng(2)
    runs = 10_000
    total = sum(deliberate(dist, "quantum", rng).up_calls for _ in range(runs))
    expected = 3.0 / grover_success(0.2742, 1)  # 3.0205
    # 3 sigma of the mean of attempts*(2k+1) over 10^4 runs is ~0.0075
    assert abs(total / runs - expected) < 0.01


def test_deliberate_classical_mean_cost():
    dist = StationaryDistribution.from_epsilon_ratio(0.2742, 1.0)
    rng = np.random.default_rng(4)
    runs = 10_000
    total = sum(deliberate(dist, "classical", rng).up_calls for _ in range(runs))
    expected = 1.0 / 0.2742
    sigma_mean = math.sqrt(1 - 0.2742) / 0.2742 / math.sqrt(runs)
    assert abs(total / runs - expected) < 3 * sigma_mean


def test_deliberate_deterministic():
    dist = StationaryDistribution.from_epsilon_ratio(0.1, 0.5)
    a = [deliberate(dist, "quantum", np.random.default_rng(7)) for _ in range(50)]
    b = [deliberate(dist, "quantum", np.random.default_rng(7)) for _ in range(50)]
    assert a == b


def test_deliberate_rejects_bad_inputs():
    dist = StationaryDistribution(np.array([0.0, 0.0, 0.5, 0.5]))
    with pytest.raises(ValueError):
        deliberate(dist, "classical", np.random.default_rng(0))
    good = StationaryDistribution.from_epsilon_ratio(0.5, 1.0)
    with pytest.raises(ValueError):
        deliberate(good, "annealer", np.random.default_rng(0))


def test_deliberate_tiny_flagged_weight_has_no_cap():
    # about 10^9 attempts on average, drawn at once instead of looped over
    dist = StationaryDistribution.from_epsilon_ratio(1e-9, 1.0)
    rec = deliberate(dist, "classical", np.random.default_rng(1))
    assert rec.action in (0, 1)
    assert rec.attempts >= 1 and rec.up_calls == rec.attempts


def test_deliberate_action_split_follows_flagged_ratio():
    # ratio preservation: flagged actions come out as b00:b01 = a00:a01
    ratio = 0.25
    dist = StationaryDistribution.from_epsilon_ratio(0.0504, ratio)
    for backend, seed in (("quantum", 13), ("classical", 14)):
        rng = np.random.default_rng(seed)
        actions = np.array([deliberate(dist, backend, rng).action for _ in range(4000)])
        observed = [np.sum(actions == 0), np.sum(actions == 1)]
        expected = np.array([ratio, 1.0]) / (1.0 + ratio) * len(actions)
        _, p_value = stats.chisquare(observed, expected)
        assert p_value > 0.001, backend


def test_deliberate_attempts_are_geometric():
    dist = StationaryDistribution.from_epsilon_ratio(0.3, 1.0)
    k = optimal_k(0.3)
    success = grover_success(0.3, k)
    rng = np.random.default_rng(8)
    attempts = np.array([deliberate(dist, "quantum", rng).attempts for _ in range(4000)])
    # pooled chi-square against Geometric(success)
    max_bin = 4
    observed = [np.sum(attempts == i) for i in range(1, max_bin)]
    observed.append(np.sum(attempts >= max_bin))
    probs = [success * (1 - success) ** (i - 1) for i in range(1, max_bin)]
    probs.append((1 - success) ** (max_bin - 1))
    _, p_value = stats.chisquare(observed, np.array(probs) * len(attempts))
    assert p_value > 0.001


def _reference_deliberate(dist, backend, rng):
    # The per-call law as first written: the outcome distribution is rebuilt
    # on every call and the action found in the flagged CDF.  The quantum
    # agent samples directly where the circuit's success makes its 2k+1
    # calls per attempt cost more than the classical 1/eps.
    k, outcome = 0, np.asarray(dist.a, dtype=float)
    if backend == "quantum":
        k_opt = optimal_k(dist.epsilon)
        amplified = run_ideal_distribution(dist, k_opt)
        if (2 * k_opt + 1) / amplified[list(FLAGGED)].sum() <= 1.0 / dist.epsilon:
            k, outcome = k_opt, amplified
    weights = outcome[list(FLAGGED)]
    success = float(weights.sum())
    attempts = _geometric(rng, success)
    cdf = np.cumsum(weights / success)
    index = min(int(np.searchsorted(cdf, rng.random(), side="right")), len(FLAGGED) - 1)
    return DeliberationRecord(action=FLAGGED[index], attempts=attempts, k=k)


@pytest.mark.parametrize(
    "eps, ratio",
    [(0.02, 0.5), (0.0146, 1.0), (0.2742, 0.25), (0.6, 3.0), (1.0, 1.0), (0.0504, 0.0), (0.3, 1e6),
     (0.5, 1.0), (0.317, 0.25)],
)
def test_deliberate_matches_per_call_reference_record_for_record(eps, ratio):
    dist = StationaryDistribution.from_epsilon_ratio(eps, ratio)
    for backend in ("quantum", "classical"):
        for seed in range(3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(300):
                assert deliberate(dist, backend, rng) == _reference_deliberate(dist, backend, ref_rng)
            assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("ratio", [0.0, 0.01, 0.25, 1.0, 3.0, 1e6])
@pytest.mark.parametrize("eps", [1e-4, 0.0011, 0.0146, 0.02, 0.0504, 0.2742, 0.38, 0.6, 1.0])
def test_circuit_law_is_the_closed_form_deliberate_reads(eps, ratio):
    # Diffusion keeps the flagged amplitudes in their stationary split, so the
    # circuit's (k, flagged success, share of |00>) is the closed form.  The
    # agent amplifies only where the circuit's 2k+1 calls per attempt cost no
    # more than the classical 1/eps.
    dist = StationaryDistribution.from_epsilon_ratio(eps, ratio)
    k = optimal_k(dist.epsilon)
    w00, w01 = run_ideal_distribution(dist, k)[list(FLAGGED)]
    amplifies = (2 * k + 1) / (w00 + w01) <= 1.0 / dist.epsilon
    assert deliberate(dist, "quantum", np.random.default_rng(0)).k == (k if amplifies else 0)
    assert abs((w00 + w01) - grover_success(dist.epsilon, k)) <= 1e-12
    assert abs(w00 / (w00 + w01) - dist.a00 / dist.epsilon) <= 1e-12


def test_twin_distributions_give_identical_records():
    twins = [StationaryDistribution.from_epsilon_ratio(0.02, 0.5) for _ in range(2)]
    assert twins[0] != twins[1]  # equality is by identity
    for backend in ("quantum", "classical"):
        rngs = [np.random.default_rng(9) for _ in twins]
        first, second = ([deliberate(d, backend, rng) for _ in range(200)] for d, rng in zip(twins, rngs))
        assert first == second
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.parametrize("p, size", [(0.0, None), (0.0, 3), (-0.1, None), (math.nan, None),
                                     # positive, but a count could overflow a float
                                     (5e-324, None), (5e-324, 3), (1e-308, None), (2e-307, 3),
                                     (math.nextafter(2.05e-307, 0.0), None)])
def test_geometric_rejects_nonpositive_probability_before_drawing(p, size):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="not positive"):
            _geometric(rng, p, size)
    assert rng.bit_generator.state == state


class _LargestUniform:
    """A generator stand-in whose every draw is the largest double below 1."""

    def random(self, size=None):
        u = 1.0 - 2.0**-53
        return u if size is None else np.full(size, u)


@pytest.mark.parametrize("p", [1e-300, 2.05e-307])
def test_geometric_count_stays_finite_down_to_its_bound(p):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for rng in (np.random.default_rng(0), _LargestUniform()):
            assert math.isfinite(_geometric(rng, p))
            assert np.all(np.isfinite(_geometric(rng, p, 3)))


def test_tiny_flagged_weight_is_a_value_error_not_an_overflow():
    dist = StationaryDistribution.from_epsilon_ratio(math.nextafter(0.0, 1.0), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="success probability"):
            deliberate(dist, "classical", np.random.default_rng(0))
        with pytest.raises(ValueError, match="success probability"):
            classical_cost_curve([5e-324], 3, np.random.default_rng(0))


def test_quantum_beats_classical_below_quarter():
    rng_q = np.random.default_rng(11)
    rng_c = np.random.default_rng(12)
    runs = 10_000
    for eps in (0.25, 0.1, 0.02):
        dist = StationaryDistribution.from_epsilon_ratio(eps, 1.0)
        mean_q = sum(deliberate(dist, "quantum", rng_q).up_calls for _ in range(runs)) / runs
        mean_c = sum(deliberate(dist, "classical", rng_c).up_calls for _ in range(runs)) / runs
        assert mean_q < mean_c, eps


@pytest.mark.parametrize("eps", [1e-4, 0.0110, 0.2742, 0.3169, 0.3170, 0.5, 0.6168, 0.6169, 1.0])
def test_quantum_agent_never_expects_more_calls_than_classical(eps):
    # Amplifying with optimal_k would cost more than 1/eps expected calls for
    # eps in ((3 - sqrt 3)/4, pi^2/16]; there the agent samples directly.
    dist = StationaryDistribution.from_epsilon_ratio(eps, 1.0)
    k = deliberate(dist, "quantum", np.random.default_rng(0)).k
    assert (2 * k + 1) / grover_success(dist.epsilon, k) <= (1.0 / dist.epsilon) * (1.0 + 1e-12)
    if eps <= 0.3169:
        assert k == optimal_k(dist.epsilon)


def test_quantum_monte_carlo_cost_exponent():
    rng = np.random.default_rng(21)
    pts = []
    for eps in TABLE_EPSILONS:
        dist = StationaryDistribution.from_epsilon_ratio(eps, 1.0)
        mean = sum(deliberate(dist, "quantum", rng).up_calls for _ in range(2000)) / 2000
        pts.append((eps, mean))
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    slope = np.polyfit(x, y, 1)[0]
    assert 0.45 <= -slope <= 0.55


# --------------------------------------------------------------- cost curves

def test_classical_cost_curve_means():
    rng = np.random.default_rng(31)
    curve = dict(classical_cost_curve([0.5, 0.0110], 40_000, rng))
    assert abs(curve[0.5] - 2.0) < 3 * math.sqrt(0.5) / 0.5 / 200
    sigma = math.sqrt(1 - 0.011) / 0.011 / 200
    assert abs(curve[0.0110] - 1 / 0.0110) < 3 * sigma


def test_classical_cost_curve_exponent():
    rng = np.random.default_rng(33)
    curve = classical_cost_curve(list(TABLE_EPSILONS), 20_000, rng)
    x = np.log([c[0] for c in curve])
    y = np.log([c[1] for c in curve])
    slope = np.polyfit(x, y, 1)[0]
    assert 0.95 <= -slope <= 1.05


# ------------------------------------------------------------- learning demo

def test_learning_demo_two_actions_classical():
    for seed in range(20):
        trace = learning_demo(2, {0}, "classical", np.random.default_rng(seed))
        assert len(trace) <= 2
        assert trace[-1].rewarded


def test_learning_demo_trace_structure():
    trace = learning_demo(10, {3}, "quantum", np.random.default_rng(5))
    sizes = [step.n_flagged for step in trace]
    assert sizes[0] == 10
    assert all(a - 1 == b for a, b in zip(sizes, sizes[1:]))  # one unflag per miss
    for step in trace:
        assert abs(step.epsilon - step.n_flagged / 10) < 1e-12
    calls = [step.up_calls for step in trace]
    assert all(a < b for a, b in zip(calls, calls[1:])) or len(calls) == 1
    assert trace[-1].rewarded and not any(s.rewarded for s in trace[:-1])


def test_learning_demo_quantum_cheaper_on_average():
    runs = 1000
    totals = {"quantum": 0, "classical": 0}
    for backend in totals:
        for seed in range(runs):
            trace = learning_demo(100, {42}, backend, np.random.default_rng([77, seed]))
            totals[backend] += trace[-1].up_calls
    assert totals["quantum"] < totals["classical"]


def test_learning_demo_same_seed_same_trace():
    a = learning_demo(20, {4, 9}, "quantum", np.random.default_rng(13))
    b = learning_demo(20, {4, 9}, "quantum", np.random.default_rng(13))
    assert a == b


def test_learning_demo_backends_share_action_sequence():
    # the two backends consume the stream identically, so the visited flag
    # counts coincide for a common seed
    q = learning_demo(50, {7}, "quantum", np.random.default_rng(99))
    c = learning_demo(50, {7}, "classical", np.random.default_rng(99))
    assert [s.n_flagged for s in q] == [s.n_flagged for s in c]


def _reference_learning_demo(num_actions, rewarded, backend, rng):
    # The loop as first written, after its argument checks: it rebuilds the
    # rewarded flags every interaction and removes the drawn action by value.
    rewarded = set(rewarded)
    flags = list(range(num_actions))
    trace = []
    total_calls = 0
    while True:
        if not set(flags) & rewarded:
            raise RuntimeError("policy exhausted: all rewarded actions unflagged")
        eps = len(flags) / num_actions
        k, success = 0, eps
        if backend == "quantum":
            k_opt = optimal_k(eps)
            p_opt = grover_success(eps, k_opt)
            if (2 * k_opt + 1) / p_opt <= 1.0 / eps:
                k, success = k_opt, p_opt
        total_calls += _geometric(rng, success) * (2 * k + 1)
        action = flags[_uniform_index(rng, len(flags))]
        hit = action in rewarded
        trace.append(LearningStep(len(flags), eps, total_calls, hit))
        if hit:
            return trace
        flags.remove(action)


@st.composite
def _learning_inputs(draw):
    num_actions = draw(st.integers(2, 150))
    rewarded = draw(st.sets(st.integers(0, num_actions - 1), min_size=1))
    backend = draw(st.sampled_from(["quantum", "classical"]))
    return num_actions, rewarded, backend, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_learning_inputs())
@example((2, {0}, "quantum", 0))
@example((150, {149}, "classical", 7))
@example((100, {42}, "quantum", 0))
def test_learning_demo_matches_reference_trace_and_stream(inputs):
    num_actions, rewarded, backend, seed = inputs
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    trace = learning_demo(num_actions, rewarded, backend, rng)
    assert trace == _reference_learning_demo(num_actions, rewarded, backend, ref_rng)
    assert all(type(step) is LearningStep for step in trace)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_learning_inputs())
def test_learning_demo_keeps_every_rewarded_action_flagged(inputs):
    num_actions, rewarded, backend, seed = inputs
    trace = learning_demo(num_actions, rewarded, backend, np.random.default_rng(seed))
    assert trace[0].n_flagged == num_actions
    assert all(step.n_flagged >= len(rewarded) for step in trace)
    assert [step.rewarded for step in trace] == [False] * (len(trace) - 1) + [True]


def test_learning_step_is_immutable():
    step = LearningStep(3, 0.3, 5, False)
    with pytest.raises(AttributeError):
        step.up_calls = 6


def test_learning_demo_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        learning_demo(1, {0}, "classical", rng)
    with pytest.raises(ValueError):
        learning_demo(5, set(), "classical", rng)
    with pytest.raises(ValueError):
        learning_demo(5, {9}, "classical", rng)
    with pytest.raises(ValueError):
        learning_demo(5, {0}, "annealer", rng)
