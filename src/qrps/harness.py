"""Experiment campaigns, least-squares fits, and CSV output.

The three campaigns mirror the measurements the simulator reproduces: cost
scaling over a flagged-weight grid, output-ratio preservation over input
ratio pairs, and the detuning sweep with the decoupling-window comparison.
Rows are deterministic for a fixed seed; per-configuration generators are
derived from (seed, row index) so ordering never depends on scheduling.
Results and rows are NamedTuples; the ratio and decoupling CSV writers emit
each row as its tuple under a header joined from its fields.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .deliberation import MAX_K, classical_cost_curve, optimal_k, run_ideal
from .noise import (
    NOISELESS,
    DEFAULT_SETTINGS,
    FIDELITIES,
    NoiseModel,
    PulseSettings,
    RunResult,
    noisy_distribution,
    result_from_distribution,
    run_noisy,
    window_infidelity,
)
from .qsim import _check_count, _check_range

# Flagged weights placing pi/(4 sqrt(eps)) - 1/2 near the integers 1..7.
DEFAULT_EPSILONS = (0.2742, 0.0987, 0.0504, 0.0305, 0.0204, 0.0146, 0.0110)

# Input pairs (a00, a01) spanning ratios 0.01..2.  Their flagged weights a00 + a01 take
# one diffusion step (about 0.27415, the first seven) and three (about 0.05036, the rest).
RATIO_PAIRS = (
    (0.00271, 0.27144),
    (0.07257, 0.20159),
    (0.11383, 0.16032),
    (0.14107, 0.13309),
    (0.16040, 0.11376),
    (0.17482, 0.09933),
    (0.13708, 0.13708),
    (0.00458, 0.04578),
    (0.01633, 0.03402),
    (0.02328, 0.02707),
    (0.02788, 0.02248),
    (0.03114, 0.01922),
    (0.03357, 0.01679),
)

DEFAULT_DETUNINGS = (0.0, -0.015, -0.04, -0.08)

# Residual error budget with the detuning swept separately: per-step
# dephasing exponent 1/14 and the asymmetric readout confusion.
BASELINE_DD_NOISE = NoiseModel(
    dephasing_exponent=1.0 / 14.0,
    detect_bright_as_dark=0.06,
    detect_dark_as_bright=0.03,
)


class ConfigError(ValueError):
    """Invalid configuration file or option combination."""


@dataclass(frozen=True)
class HarnessConfig:
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    ratio: float = 1.0
    shots: int = 1600
    seed: int = 0
    fidelity: str = "pulse"
    ideal: bool = False
    noise: NoiseModel = NOISELESS
    pulses: PulseSettings = DEFAULT_SETTINGS
    detunings: tuple[float, ...] = DEFAULT_DETUNINGS
    classical_runs: int = 1600

    def __post_init__(self):
        # Ideal mode is noiseless in every campaign, whatever noise is given.
        if self.ideal:
            object.__setattr__(self, "noise", NOISELESS)
        for name, minimum in (("shots", 1), ("seed", 0), ("classical_runs", 1)):
            _check_count(name, getattr(self, name), minimum, ConfigError)
        if self.fidelity not in FIDELITIES:
            raise ConfigError(f"fidelity must be 'gate' or 'pulse', got {self.fidelity!r}")
        _check_range("ratio", self.ratio, 0.0, math.inf, "[)", ConfigError)
        for eps in self.epsilons:
            _check_range("epsilon", eps, 0.0, 1.0, "(]", ConfigError)
            _check_count(f"epsilon {eps}: k", optimal_k(eps), 0, ConfigError, MAX_K)
        for delta in self.detunings:
            _check_range("detuning", delta, -1.0, 1.0, "()", ConfigError)


class PowerLawFit(NamedTuple):
    """Exponent of C = A * eps^(-exponent), fitted on log-log axes."""

    exponent: float
    exponent_err: float
    intercept: float
    residual_rms: float


class LinearFit(NamedTuple):
    slope: float
    slope_err: float
    intercept: float
    intercept_err: float
    residual_rms: float


def fit_linear(
    points: list[tuple[float, float]], errors: list[float] | None = None
) -> LinearFit:
    """Weighted least-squares line over finite points; unweighted when errors are absent or zero.

    The weights are (e_min/e)^2 <= 1, so no scale of the errors overflows them.  Inputs
    that still give a non-finite fit (an overflow, or singular normal equations) are a
    ValueError naming the points.
    """
    if len(points) < 2:
        raise ValueError("linear fit needs at least 2 points")
    if not all(math.isfinite(v) for p in points for v in p[:2]):
        raise ValueError("points must be finite")
    if errors is not None and (len(errors) != len(points) or not all(0.0 <= e < math.inf for e in errors)):
        raise ValueError(f"errors must be {len(points)} finite nonnegative values, got {errors}")
    x = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    if np.ptp(x) == 0.0:
        raise ValueError("degenerate abscissa")
    weighted = errors is not None and all(e > 0 for e in errors)
    e_min = min(errors) if weighted else 1.0
    w = (e_min / np.array(errors, dtype=float)) ** 2 if weighted else np.ones_like(x)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow turns up as a non-finite fit below
        s, sx, sy = float(w.sum()), float((w * x).sum()), float((w * y).sum())
        sxx, sxy = float((w * x * x).sum()), float((w * x * y).sum())
        det = s * sxx - sx * sx
        det = det if 0.0 < det < math.inf else math.nan
        slope, intercept = (s * sxy - sx * sy) / det, (sxx * sy - sx * sxy) / det
        resid = y - (slope * x + intercept)
        rss = float(resid @ resid)
    n = len(x)
    # Weighted, the absolute input errors propagate directly through the normal
    # equations; unweighted, the residual variance stands in for them.
    var = 1.0 if weighted else rss / (n - 2) if n > 2 else 0.0
    fit = LinearFit(slope, e_min * math.sqrt(var * s / det), intercept, e_min * math.sqrt(var * sxx / det),
                    math.sqrt(rss / n))
    if not all(map(math.isfinite, fit)):
        raise ValueError(f"points {points} give no finite fit" + (f" with errors {errors}" if weighted else ""))
    return fit


def fit_power_law(points: list[tuple[float, float]]) -> PowerLawFit:
    """Line through (log eps, log C); the exponent is the negated slope."""
    if len(points) < 3:
        raise ValueError("power-law fit needs at least 3 points")
    if not all(eps > 0 and cost > 0 for eps, cost in points):  # written so that NaN fails
        raise ValueError("power-law fit needs points with positive epsilon and cost")
    line = fit_linear([(math.log(eps), math.log(cost)) for eps, cost in points])
    return PowerLawFit(-line.slope, line.slope_err, line.intercept, line.residual_rms)


class ScalingResult(NamedTuple):
    rows: tuple[RunResult, ...]
    fit: PowerLawFit
    classical: tuple[tuple[float, float], ...]
    classical_fit: PowerLawFit


def _run_row(config: HarnessConfig, i: int, eps: float, ratio: float) -> RunResult:
    """Row ``i`` of a campaign at ``optimal_k(eps)`` diffusion steps.

    Ideal mode gives the exact distribution (zero statistical errors); noisy
    mode samples ``shots`` outcomes with the row's own generator.
    """
    if config.ideal:
        k = optimal_k(eps)
        return result_from_distribution(k, eps, ratio, run_ideal(eps, ratio, k), config.shots)
    rng = np.random.default_rng([config.seed, i])
    return run_noisy(
        eps, ratio, config.noise, config.fidelity, shots=config.shots, rng=rng, settings=config.pulses
    )


def scaling_experiment(config: HarnessConfig) -> ScalingResult:
    """Cost-versus-epsilon campaign plus the classical sampling baseline."""
    if len(set(config.epsilons)) < 3:
        raise ConfigError(f"scaling needs at least 3 distinct epsilons for its power-law fits, got {config.epsilons}")
    rows = [_run_row(config, i, eps, config.ratio) for i, eps in enumerate(config.epsilons)]
    fit = fit_power_law([(r.epsilon, r.cost) for r in rows])
    rng_c = np.random.default_rng([config.seed, len(config.epsilons)])
    classical = tuple(classical_cost_curve(list(config.epsilons), config.classical_runs, rng_c))
    classical_fit = fit_power_law(list(classical))
    return ScalingResult(tuple(rows), fit, classical, classical_fit)


class RatioRow(NamedTuple):
    k: int
    a00: float
    a01: float
    r_in: float
    b00: float
    b01: float
    r_out: float
    err_r_out: float


def _ratio_error(b00: float, b01: float, shots: int) -> float:
    # First-order propagation with the multinomial covariance of (b00, b01).
    if b00 <= 0.0 or b01 <= 0.0:
        raise RuntimeError("ratio undefined: empty flagged outcome")
    r = b00 / b01
    var = r * r * ((1 - b00) / (shots * b00) + (1 - b01) / (shots * b01) + 2.0 / shots)
    return math.sqrt(var)


class RatioResult(NamedTuple):
    rows: tuple[RatioRow, ...]
    fits: dict[int, LinearFit]


def ratio_experiment(config: HarnessConfig) -> RatioResult:
    """Output-ratio campaign: r_out versus r_in over ``RATIO_PAIRS``, each at ``optimal_k(a00 + a01)``, fitted per k."""
    rows = []
    for i, (a00, a01) in enumerate(RATIO_PAIRS):
        ratio = a00 / a01
        res = _run_row(config, i, a00 + a01, ratio)
        err = 0.0 if config.ideal else _ratio_error(res.b00, res.b01, config.shots)
        rows.append(RatioRow(res.k, a00, a01, ratio, res.b00, res.b01, res.b00 / res.b01, err))
    fits = {}
    for k in sorted({row.k for row in rows}):
        group = [row for row in rows if row.k == k]
        fits[k] = fit_linear(
            [(row.r_in, row.r_out) for row in group],
            [row.err_r_out for row in group],
        )
    return RatioResult(tuple(rows), fits)


class DDCurvePoint(NamedTuple):
    detuning: float
    k: int
    epsilon: float
    eps_tilde: float
    cost: float


class DDWindowRow(NamedTuple):
    detuning: float
    infidelity_ur14: float
    infidelity_cpmg: float
    infidelity_none: float


class DDCheckResult(NamedTuple):
    curves: tuple[DDCurvePoint, ...]
    windows: tuple[DDWindowRow, ...]


def dd_check(config: HarnessConfig) -> DDCheckResult:
    """Detuning sweep of the full algorithm plus the decoupling comparison.

    Each swept detuning replaces the noise model's, and success probabilities
    are evaluated exactly (no shot sampling) so the cost ordering across
    detunings is free of statistical flutter.  So the config's detuning,
    preparation jitter, shots and seed (the CLI's ``--detuning``,
    ``--jitter``, ``--shots`` and ``--seed``) do not change the result.
    """
    curves = []
    for delta in config.detunings:
        noise = replace(config.noise, detuning_ratio=delta)
        for eps in config.epsilons:
            k = optimal_k(eps)
            p = noisy_distribution(eps, config.ratio, noise, config.fidelity, settings=config.pulses)
            res = result_from_distribution(k, eps, config.ratio, p, config.shots)
            curves.append(DDCurvePoint(delta, k, eps, res.eps_tilde, res.cost))
    windows = []
    for delta in config.detunings:
        if delta == 0.0:
            continue
        windows.append(DDWindowRow(delta, *(
            window_infidelity(delta, config.pulses, scheme, config.fidelity)
            for scheme in ("ur14", "cpmg", "none")
        )))
    return DDCheckResult(tuple(curves), tuple(windows))


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".6g")


SCALING_HEADER = "k,epsilon,a00,a01,shots,c00,c01,c10,c11,b00,b01,eps_tilde,err_eps_tilde,cost,err_cost"
RATIO_HEADER = ",".join(RatioRow._fields)
DD_CURVE_HEADER = ",".join(DDCurvePoint._fields)
DD_WINDOW_HEADER = ",".join(DDWindowRow._fields)
CLASSICAL_HEADER = "epsilon,runs,mean_cost"


def _csv(header: str, rows) -> str:
    return "\n".join([header, *(",".join(_fmt(c) for c in row) for row in rows)]) + "\n"


def scaling_csv(result: ScalingResult) -> str:
    return _csv(SCALING_HEADER, (
        [r.k, r.epsilon, r.a00, r.a01, r.shots, *r.counts,
         r.b00, r.b01, r.eps_tilde, r.err_eps_tilde, r.cost, r.err_cost]
        for r in result.rows
    ))


def classical_csv(result: ScalingResult, runs: int) -> str:
    return _csv(CLASSICAL_HEADER, ((eps, runs, cost) for eps, cost in result.classical))


def ratio_csv(result: RatioResult) -> str:
    return _csv(RATIO_HEADER, result.rows)


def dd_curves_csv(result: DDCheckResult) -> str:
    return _csv(DD_CURVE_HEADER, result.curves)


def dd_windows_csv(result: DDCheckResult) -> str:
    return _csv(DD_WINDOW_HEADER, result.windows)


PLOT_STUB = """\
#!/usr/bin/env python3
\"\"\"Plot {csv_name} (generated alongside the CSV; requires matplotlib).\"\"\"
import csv
import sys

import matplotlib.pyplot as plt

rows = list(csv.DictReader(open(sys.argv[1] if len(sys.argv) > 1 else {csv_name!r})))
x = [float(r[{x_col!r}]) for r in rows]
y = [float(r[{y_col!r}]) for r in rows]
plt.loglog(x, y, "o-")
plt.xlabel({x_col!r})
plt.ylabel({y_col!r})
plt.show()
"""


def sibling_path(path: str, suffix: str) -> str:
    """``path`` with ``suffix`` in place of its ``.csv`` extension, or appended."""
    return (path[:-4] if path.endswith(".csv") else path) + suffix


def write_plot_stub(csv_path: str, x_col: str, y_col: str) -> str:
    """Emit a small plotting script next to a CSV; returns the stub path."""
    stub_path = sibling_path(csv_path, "_plot.py")
    with open(stub_path, "w", newline="\n") as fh:
        fh.write(PLOT_STUB.format(csv_name=csv_path, x_col=x_col, y_col=y_col))
    return stub_path


def _angular(raw: str) -> float:
    return 2.0 * math.pi * float(raw)


# Config-file keys by section: key -> (HarnessConfig field, parser).  Fields
# named "noise.x" and "pulses.x" are fields of the noise model and the pulse
# settings.
CONFIG_KEYS = {
    "noise": {key: (f"noise.{key}", float) for key in (
        "detuning_ratio", "dephasing_exponent", "detect_bright_as_dark",
        "detect_dark_as_bright", "prep_epsilon_jitter",
    )},
    "experiment": {
        "epsilons": ("epsilons", lambda s: tuple(float(v) for v in s.split(","))),
        "shots": ("shots", int),
        "seed": ("seed", int),
        "fidelity": ("fidelity", str),
        "ideal": ("ideal", lambda s: configparser.ConfigParser.BOOLEAN_STATES[s.lower()]),
        "ratio": ("ratio", float),
        "classical_runs": ("classical_runs", int),
    },
    "pulses": {
        "rabi_hz": ("pulses.rabi", _angular),
        "tau_s": ("pulses.tau", float),
        "dd_sets": ("pulses.dd_sets", int),
    },
}


def overlay(config: HarnessConfig, values: dict, source: str = "") -> HarnessConfig:
    """``config`` with the given fields replaced, named as in ``CONFIG_KEYS``.

    Invalid values are configuration errors, prefixed with ``source``.
    """
    nested: dict[str, dict] = {"": {}, "noise": {}, "pulses": {}}
    for name, value in values.items():
        part, _, field = name.rpartition(".")
        nested[part][field] = value
    try:
        return replace(
            config,
            noise=replace(config.noise, **nested["noise"]),
            pulses=replace(config.pulses, **nested["pulses"]),
            **nested[""],
        )
    except ValueError as exc:
        raise ConfigError(f"{source}{exc}") from exc


def load_config(path: str, base: HarnessConfig | None = None) -> HarnessConfig:
    """Read a sectioned key-value file and overlay it on ``base``.

    Sections are [noise], [experiment], and [pulses]; unknown sections or
    keys are errors, reported with their location.
    """
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    values = {}
    for section in parser.sections():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser[section].items():
            if key not in CONFIG_KEYS[section]:
                raise ConfigError(f"{path}: unknown key '{key}' in [{section}]")
            field, parse = CONFIG_KEYS[section][key]
            try:
                values[field] = parse(raw)
            except (KeyError, ValueError) as exc:  # KeyError: not a boolean word
                raise ConfigError(f"{path}: bad value for [{section}] {key}: {raw!r}") from exc
    return overlay(base or HarnessConfig(), values, f"{path}: ")
