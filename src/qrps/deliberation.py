"""Deliberation loop, cost accounting, and the flag-based learning demo.

The quantum agent prepares the stationary state, amplifies the flagged
actions with k diffusion steps, and samples; the classical agent samples the
stationary distribution directly.  Cost counts calls to the preparation
unitary: 2k+1 per quantum attempt, 1 per classical attempt.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .circuits import FLAGGED, StationaryDistribution, diffusion, prepare_alpha
from .qsim import QuantumState, _check_count, _check_range, probabilities

# The most diffusion steps a circuit run loops over: optimal_k exceeds it below epsilon ~ 6.17e-13, where a run
# fails at once instead of looping.  The closed form (grover_success, deliberate, learning_demo) takes any k.
MAX_K = 10**6


def optimal_k(epsilon: float) -> int:
    """Optimal diffusion count round(pi / (4 sqrt(eps)) - 1/2).

    Rounding is half-away-from-zero; the result is never negative.
    """
    _check_range("epsilon", epsilon, 0.0, 1.0, "(]")
    x = math.pi / (4.0 * math.sqrt(epsilon)) - 0.5
    return max(0, int(math.floor(x + 0.5)))


def grover_success(epsilon: float, k: int) -> float:
    """Closed-form flagged probability sin^2((2k+1) asin(sqrt(eps))).

    Independent oracle for the circuit simulation: amplitude amplification
    rotates the state by 2 asin(sqrt(eps)) per diffusion step.  ``k`` is an
    integer >= 0.
    """
    _check_range("epsilon", epsilon, 0.0, 1.0)
    _check_count("k", k, 0)
    return math.sin((2 * k + 1) * math.asin(math.sqrt(epsilon))) ** 2


def run_ideal(epsilon: float, ratio: float = 1.0, k: int | None = None) -> np.ndarray:
    """Exact output distribution after preparation and k diffusion steps.

    ``k`` defaults to ``optimal_k(epsilon)``.  The flagged total matches
    ``grover_success`` and the flagged ratio b00/b01 equals ``ratio``.
    """
    dist = StationaryDistribution.from_epsilon_ratio(epsilon, ratio)
    return run_ideal_distribution(dist, k)


def run_ideal_distribution(dist: StationaryDistribution, k: int | None = None) -> np.ndarray:
    """Exact output distribution of ``dist`` after k diffusion steps.

    ``k``, an integer in [0, ``MAX_K``], defaults to ``optimal_k(dist.epsilon)``.
    ``prepare_alpha`` validates the prepared state; the amplitudes then
    evolve as a plain array and are validated once more, as the final state.
    """
    if k is None:
        k = optimal_k(dist.epsilon)
    _check_count("k", k, 0, maximum=MAX_K)
    angles = dist.angles()
    psi = prepare_alpha(angles).data
    step = diffusion(angles)
    for _ in range(k):
        psi = step @ psi
    return probabilities(QuantumState(psi))


class DeliberationRecord(NamedTuple):
    """Outcome of one deliberation: sampled action, attempts and diffusion count."""

    action: int
    attempts: int
    k: int

    @property
    def up_calls(self) -> int:
        """Calls to the preparation unitary: 2k+1 per attempt."""
        return self.attempts * (2 * self.k + 1)


def _uniform_index(rng: np.random.Generator, n: int) -> int:
    # One underlying draw per call keeps paired backends stream-aligned.
    return min(int(rng.random() * n), n - 1)


def _geometric(rng: np.random.Generator, p: float, size: int | None = None):
    """Number of Bernoulli(p) trials up to and including the first success.

    Inverts one uniform draw per sample; ``size`` returns an array of samples.
    A single sample uses ``math.log1p``, whose rounding numpy's vectorized
    log1p does not always match.  p >= 1 (a flagged sum can exceed 1 by
    rounding) gives 1.  As -log1p(-u) <= 53 ln 2, a count can overflow a
    float below p = 2.05e-307, so such p (or NaN) is rejected before any draw.
    """
    if not p >= 2.05e-307:
        raise ValueError(f"success probability {p} is not positive or is below 2.05e-307, where counts overflow")
    u = rng.random(size)
    if p >= 1.0:
        return 1 if size is None else np.ones(size)
    if size is None:
        return math.floor(math.log1p(-u) / math.log1p(-p)) + 1
    return np.floor(np.log1p(-u) / math.log1p(-p)) + 1.0


def _attempt_law(backend: str, eps: float) -> tuple[int, float]:
    """Diffusion count k and per-attempt success at flagged weight eps.

    Classical: (0, eps).  Quantum: (``optimal_k(eps)``, ``grover_success``)
    unless 2k+1 calls per attempt cost more than the classical 1/eps; then
    (0, eps), which in closed form is eps in ((3 - sqrt 3)/4, pi^2/16], about
    (0.317, 0.617].  Circuit runs and campaigns keep k = ``optimal_k(eps)``:
    they measure the paper's circuit at its k, not an agent's choice.
    """
    if backend == "quantum":
        k = optimal_k(eps)
        success = grover_success(eps, k)
        if (2 * k + 1) / success <= 1.0 / eps:
            return k, success
    return 0, eps


def deliberate(
    dist: StationaryDistribution, backend: str, rng: np.random.Generator
) -> DeliberationRecord:
    """Prepare and measure until a flagged action is sampled.

    Attempts follow ``_attempt_law`` and cost 2k+1 preparation calls each.
    Diffusion keeps the flagged amplitudes in their stationary split, so both
    backends pick |00> with share a00/eps.  Two draws per call: the geometric
    attempt count, then the action.
    """
    if backend not in ("quantum", "classical"):
        raise ValueError(f"unknown backend {backend!r}")
    eps = dist.epsilon
    if eps <= 0.0:
        raise ValueError(f"dist must have a positive flagged weight, got {eps}")
    k, success = _attempt_law(backend, eps)
    attempts = _geometric(rng, success)
    action = FLAGGED[0] if rng.random() < dist.a00 / eps else FLAGGED[1]
    return DeliberationRecord(action=action, attempts=attempts, k=k)


def classical_cost_curve(
    epsilons: list[float], runs: int, rng: np.random.Generator
) -> list[tuple[float, float]]:
    """Monte Carlo mean sampling cost per epsilon; consistent with 1/eps."""
    _check_count("runs", runs, 1)
    for eps in epsilons:
        _check_range("epsilon", eps, 0.0, 1.0, "(]")
    return [(eps, float(_geometric(rng, eps, runs).mean())) for eps in epsilons]


class LearningStep(NamedTuple):
    """One environment interaction: flag count, flagged weight, running cost."""

    n_flagged: int
    epsilon: float
    up_calls: int
    rewarded: bool


def learning_demo(
    num_actions: int,
    rewarded: set[int],
    backend: str,
    rng: np.random.Generator,
) -> list[LearningStep]:
    """Flag-based short-term memory demo on a uniform stationary distribution.

    All actions start flagged; an unrewarded action loses its flag, so the
    flagged weight eps_t = n_t / N shrinks until a rewarded action is drawn.
    Costs follow ``_attempt_law``, so ``num_actions`` may exceed 4.

    Each interaction consumes exactly two underlying draws (attempt count,
    then action choice), so both backends visit the same action sequence for
    the same seed.  Only a drawn unrewarded action is unflagged, so every
    rewarded action stays flagged until the first hit ends the episode.
    """
    _check_count("num_actions", num_actions, 2)
    if backend not in ("quantum", "classical"):
        raise ValueError(f"unknown backend {backend!r}")
    rewarded = set(rewarded)
    if not rewarded:
        raise ValueError("rewarded set must be non-empty")
    if not rewarded <= set(range(num_actions)):
        raise ValueError("rewarded actions out of range")

    # Every rewarded action is a flag and is never unflagged: a hit always comes.
    flags = list(range(num_actions))
    trace: list[LearningStep] = []
    total_calls = 0
    while True:
        n = len(flags)
        eps = n / num_actions
        k, success = _attempt_law(backend, eps)
        total_calls += _geometric(rng, success) * (2 * k + 1)
        hit = flags.pop(_uniform_index(rng, n)) in rewarded
        trace.append(LearningStep(n, eps, total_calls, hit))
        if hit:
            return trace
