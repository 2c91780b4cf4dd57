"""Deliberation loop, cost accounting, and the flag-based learning demo.

The quantum agent prepares the stationary state, amplifies the flagged
actions with k diffusion steps, and samples; the classical agent samples the
stationary distribution directly.  Cost counts calls to the preparation
unitary: 2k+1 per quantum attempt, 1 per classical attempt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import FLAGGED, StationaryDistribution, diffusion, prepare_alpha
from .qsim import QuantumState, probabilities

def optimal_k(epsilon: float) -> int:
    """Optimal diffusion count round(pi / (4 sqrt(eps)) - 1/2).

    Rounding is half-away-from-zero; the result is never negative.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon {epsilon} outside (0, 1]")
    x = math.pi / (4.0 * math.sqrt(epsilon)) - 0.5
    return max(0, int(math.floor(x + 0.5)))


def grover_success(epsilon: float, k: int) -> float:
    """Closed-form flagged probability sin^2((2k+1) asin(sqrt(eps))).

    Independent oracle for the circuit simulation: amplitude amplification
    rotates the state by 2 asin(sqrt(eps)) per diffusion step.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon {epsilon} outside [0, 1]")
    if k < 0:
        raise ValueError("k must be nonnegative")
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

    The amplitudes evolve as a plain array and are validated once, as the
    final state.
    """
    if k is None:
        k = optimal_k(dist.epsilon)
    if k < 0:
        raise ValueError("k must be nonnegative")
    angles = dist.angles()
    psi = prepare_alpha(angles).data
    step = diffusion(angles)
    for _ in range(k):
        psi = step @ psi
    return probabilities(QuantumState(psi))


@dataclass(frozen=True)
class DeliberationRecord:
    """Outcome of one deliberation: sampled action and accumulated cost."""

    action: int
    attempts: int
    up_calls: int
    k: int

    def __post_init__(self):
        # The classical backend runs no diffusion step (k = 0).
        assert self.up_calls == self.attempts * (2 * self.k + 1)


def _uniform_index(rng: np.random.Generator, n: int) -> int:
    # One underlying draw per call keeps paired backends stream-aligned.
    return min(int(rng.random() * n), n - 1)


def _geometric(rng: np.random.Generator, p: float, size: int | None = None):
    """Number of Bernoulli(p) trials up to and including the first success.

    Inverts one uniform draw per sample; ``size`` returns an array of samples.
    A single sample uses ``math.log1p``, whose rounding numpy's vectorized
    log1p does not always match.  p >= 1 (a flagged sum can exceed 1 by
    rounding) gives 1; p <= 0 or NaN is rejected before any draw.
    """
    if not p > 0.0:
        raise ValueError(f"success probability {p} is not positive")
    u = rng.random(size)
    if p >= 1.0:
        return 1 if size is None else np.ones(size)
    if size is None:
        return math.floor(math.log1p(-u) / math.log1p(-p)) + 1
    return np.floor(np.log1p(-u) / math.log1p(-p)) + 1.0


def _sample_from(dist: np.ndarray, rng: np.random.Generator) -> int:
    u = rng.random()
    return min(int(np.searchsorted(np.cumsum(dist), u, side="right")), len(dist) - 1)


def deliberate(
    dist: StationaryDistribution, backend: str, rng: np.random.Generator
) -> DeliberationRecord:
    """Prepare and measure until a flagged action is sampled.

    The quantum backend measures the amplified distribution at cost 2k+1
    preparation calls per attempt; the classical backend samples the
    stationary distribution at cost 1.  Attempts are independent, so the
    attempt count is drawn at once from the geometric law of the flagged
    success probability, and the action from the flagged outcomes in
    proportion to their probabilities: two draws per call.
    """
    if backend not in ("quantum", "classical"):
        raise ValueError(f"unknown backend {backend!r}")
    if dist.epsilon <= 0.0:
        raise ValueError("deliberation requires a positive flagged weight")
    if backend == "quantum":
        k = optimal_k(dist.epsilon)
        outcome_dist = run_ideal_distribution(dist, k)
    else:
        k = 0
        outcome_dist = np.asarray(dist.a, dtype=float)
    weights = outcome_dist[list(FLAGGED)]
    success = float(weights.sum())
    attempts = _geometric(rng, success)
    action = FLAGGED[_sample_from(weights / success, rng)]
    return DeliberationRecord(
        action=action, attempts=attempts, up_calls=attempts * (2 * k + 1), k=k
    )


def classical_cost_curve(
    epsilons: list[float], runs: int, rng: np.random.Generator
) -> list[tuple[float, float]]:
    """Monte Carlo mean sampling cost per epsilon; consistent with 1/eps."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    out = []
    for eps in epsilons:
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"epsilon {eps} outside (0, 1]")
        out.append((eps, float(_geometric(rng, eps, runs).mean())))
    return out


@dataclass(frozen=True)
class LearningStep:
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
    Costs use the closed-form success model, so ``num_actions`` may exceed 4.
    The quantum agent falls back to direct sampling (k = 0) whenever
    amplification would cost more than 1/eps expected calls.

    Each interaction consumes exactly two underlying draws (attempt count,
    then action choice), so both backends visit the same action sequence for
    the same seed.
    """
    if num_actions < 2:
        raise ValueError("num_actions must be >= 2")
    if backend not in ("quantum", "classical"):
        raise ValueError(f"unknown backend {backend!r}")
    rewarded = set(rewarded)
    if not rewarded:
        raise ValueError("rewarded set must be non-empty")
    if not rewarded <= set(range(num_actions)):
        raise ValueError("rewarded actions out of range")

    flags = list(range(num_actions))
    trace: list[LearningStep] = []
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
