"""Experiment campaigns, least-squares fits, and CSV output.

The three campaigns mirror the measurements the simulator reproduces: cost
scaling over a flagged-weight grid, output-ratio preservation over input
ratio pairs, and the detuning sweep with the decoupling-window comparison.
Rows are deterministic for a fixed seed; per-configuration generators are
derived from (seed, row index) so ordering never depends on scheduling.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import astuple, dataclass, replace

import numpy as np

from .deliberation import classical_cost_curve, optimal_k, run_ideal
from .noise import (
    NOISELESS,
    DEFAULT_SETTINGS,
    NoiseModel,
    PulseSettings,
    RunResult,
    noisy_distribution,
    result_from_distribution,
    run_noisy,
    window_infidelity,
)

# Flagged weights placing pi/(4 sqrt(eps)) - 1/2 near the integers 1..7.
DEFAULT_EPSILONS = (0.2742, 0.0987, 0.0504, 0.0305, 0.0204, 0.0146, 0.0110)

# Input pairs (k, a00, a01) spanning ratios 0.01..2 at one and three
# diffusion steps.
DEFAULT_RATIO_ROWS = (
    (1, 0.00271, 0.27144),
    (1, 0.07257, 0.20159),
    (1, 0.11383, 0.16032),
    (1, 0.14107, 0.13309),
    (1, 0.16040, 0.11376),
    (1, 0.17482, 0.09933),
    (1, 0.13708, 0.13708),
    (3, 0.00458, 0.04578),
    (3, 0.01633, 0.03402),
    (3, 0.02328, 0.02707),
    (3, 0.02788, 0.02248),
    (3, 0.03114, 0.01922),
    (3, 0.03357, 0.01679),
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
    ratio_rows: tuple[tuple[int, float, float], ...] = DEFAULT_RATIO_ROWS
    detunings: tuple[float, ...] = DEFAULT_DETUNINGS
    classical_runs: int = 1600

    def __post_init__(self):
        if self.shots < 1:
            raise ConfigError("shots must be >= 1")
        if self.fidelity not in ("gate", "pulse"):
            raise ConfigError(f"fidelity must be 'gate' or 'pulse', got {self.fidelity!r}")
        for eps in self.epsilons:
            if not 0.0 < eps <= 1.0:
                raise ConfigError(f"epsilon {eps} outside (0, 1]")


@dataclass(frozen=True)
class PowerLawFit:
    """Exponent of C = A * eps^(-exponent), fitted on log-log axes."""

    exponent: float
    exponent_err: float
    intercept: float
    residual_rms: float


@dataclass(frozen=True)
class LinearFit:
    slope: float
    slope_err: float
    intercept: float
    intercept_err: float
    residual_rms: float


def fit_linear(
    points: list[tuple[float, float]], errors: list[float] | None = None
) -> LinearFit:
    """Weighted least-squares line; unweighted when errors are absent or zero."""
    if len(points) < 2:
        raise ValueError("linear fit needs at least 2 points")
    x = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    if np.ptp(x) == 0.0:
        raise ValueError("degenerate abscissa")
    weighted = errors is not None and all(e > 0 for e in errors)
    w = 1.0 / np.array(errors, dtype=float) ** 2 if weighted else np.ones_like(x)
    s, sx, sy = float(w.sum()), float((w * x).sum()), float((w * y).sum())
    sxx, sxy = float((w * x * x).sum()), float((w * x * y).sum())
    det = s * sxx - sx * sx
    slope = (s * sxy - sx * sy) / det
    intercept = (sxx * sy - sx * sxy) / det
    resid = y - (slope * x + intercept)
    n = len(x)
    if weighted:
        # Absolute input errors propagate directly through the normal equations.
        var_slope = s / det
        var_intercept = sxx / det
    else:
        sigma2 = float(resid @ resid) / (n - 2) if n > 2 else 0.0
        var_slope = sigma2 * s / det
        var_intercept = sigma2 * sxx / det
    return LinearFit(
        slope=float(slope),
        slope_err=math.sqrt(var_slope),
        intercept=float(intercept),
        intercept_err=math.sqrt(var_intercept),
        residual_rms=math.sqrt(float(resid @ resid) / n),
    )


def fit_power_law(points: list[tuple[float, float]]) -> PowerLawFit:
    """Line through (log eps, log C); the exponent is the negated slope."""
    if len(points) < 3:
        raise ValueError("power-law fit needs at least 3 points")
    if any(eps <= 0 or cost <= 0 for eps, cost in points):
        raise ValueError("power-law fit needs positive abscissae and costs")
    line = fit_linear([(math.log(eps), math.log(cost)) for eps, cost in points])
    return PowerLawFit(-line.slope, line.slope_err, line.intercept, line.residual_rms)


@dataclass(frozen=True)
class ScalingResult:
    rows: tuple[RunResult, ...]
    fit: PowerLawFit
    classical: tuple[tuple[float, float], ...]
    classical_fit: PowerLawFit


def scaling_experiment(config: HarnessConfig) -> ScalingResult:
    """Cost-versus-epsilon campaign plus the classical sampling baseline.

    Ideal mode emits exact distributions (zero statistical errors); noisy
    mode samples ``shots`` outcomes per configuration.
    """
    rows = []
    for i, eps in enumerate(config.epsilons):
        if config.ideal:
            k = optimal_k(eps)
            p = run_ideal(eps, config.ratio, k)
            rows.append(result_from_distribution(k, eps, config.ratio, p, config.shots))
        else:
            rng = np.random.default_rng([config.seed, i])
            rows.append(
                run_noisy(
                    eps,
                    config.ratio,
                    config.noise,
                    config.fidelity,
                    shots=config.shots,
                    rng=rng,
                    settings=config.pulses,
                )
            )
    fit = fit_power_law([(r.epsilon, r.cost) for r in rows])
    rng_c = np.random.default_rng([config.seed, len(config.epsilons)])
    classical = tuple(classical_cost_curve(list(config.epsilons), config.classical_runs, rng_c))
    classical_fit = fit_power_law(list(classical))
    return ScalingResult(tuple(rows), fit, classical, classical_fit)


@dataclass(frozen=True)
class RatioRow:
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


@dataclass(frozen=True)
class RatioResult:
    rows: tuple[RatioRow, ...]
    fits: dict[int, LinearFit]


def ratio_experiment(config: HarnessConfig) -> RatioResult:
    """Output-ratio campaign: r_out versus r_in at fixed diffusion counts."""
    rows = []
    for i, (k, a00, a01) in enumerate(config.ratio_rows):
        if a01 <= 0.0:
            raise ConfigError(f"ratio row {i}: a01 must be positive (r_in undefined)")
        eps = a00 + a01
        ratio = a00 / a01
        if config.ideal:
            p = run_ideal(eps, ratio, k)
            b00, b01 = float(p[0]), float(p[1])
            err = 0.0
        else:
            rng = np.random.default_rng([config.seed, i])
            res = run_noisy(
                eps,
                ratio,
                config.noise,
                config.fidelity,
                k_override=k,
                shots=config.shots,
                rng=rng,
                settings=config.pulses,
            )
            b00, b01 = res.b00, res.b01
            err = _ratio_error(b00, b01, config.shots)
        if b01 <= 0.0:
            raise RuntimeError("ratio undefined: no outcomes in |01>")
        rows.append(RatioRow(k, a00, a01, ratio, b00, b01, b00 / b01, err))
    fits = {}
    for k in sorted({row.k for row in rows}):
        group = [row for row in rows if row.k == k]
        fits[k] = fit_linear(
            [(row.r_in, row.r_out) for row in group],
            [row.err_r_out for row in group],
        )
    return RatioResult(tuple(rows), fits)


@dataclass(frozen=True)
class DDCurvePoint:
    detuning: float
    k: int
    epsilon: float
    eps_tilde: float
    cost: float


@dataclass(frozen=True)
class DDWindowRow:
    detuning: float
    infidelity_ur14: float
    infidelity_cpmg: float
    infidelity_none: float


@dataclass(frozen=True)
class DDCheckResult:
    curves: tuple[DDCurvePoint, ...]
    windows: tuple[DDWindowRow, ...]


def dd_check(config: HarnessConfig) -> DDCheckResult:
    """Detuning sweep of the full algorithm plus the decoupling comparison.

    Success probabilities are evaluated exactly (no shot sampling) so the
    cost ordering across detunings is free of statistical flutter.
    """
    curves = []
    for delta in config.detunings:
        noise = replace(config.noise, detuning_ratio=delta)
        for eps in config.epsilons:
            k = optimal_k(eps)
            p = noisy_distribution(
                eps, config.ratio, noise, config.fidelity, k=k, settings=config.pulses
            )
            eps_tilde = float(p[0] + p[1])
            curves.append(DDCurvePoint(delta, k, eps, eps_tilde, (2 * k + 1) / eps_tilde))
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
RATIO_HEADER = "k,a00,a01,r_in,b00,b01,r_out,err_r_out"
DD_CURVE_HEADER = "detuning,k,epsilon,eps_tilde,cost"
DD_WINDOW_HEADER = "detuning,infidelity_ur14,infidelity_cpmg,infidelity_none"
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


# The ratio and decoupling row classes declare their fields in column order.
def ratio_csv(result: RatioResult) -> str:
    return _csv(RATIO_HEADER, map(astuple, result.rows))


def dd_curves_csv(result: DDCheckResult) -> str:
    return _csv(DD_CURVE_HEADER, map(astuple, result.curves))


def dd_windows_csv(result: DDCheckResult) -> str:
    return _csv(DD_WINDOW_HEADER, map(astuple, result.windows))


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


def write_plot_stub(csv_path: str, x_col: str, y_col: str) -> str:
    """Emit a small plotting script next to a CSV; returns the stub path."""
    stub_path = csv_path[:-4] + "_plot.py" if csv_path.endswith(".csv") else csv_path + "_plot.py"
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
        "ideal": ("ideal", lambda s: s.strip().lower() in ("1", "true", "yes", "on")),
        "ratio": ("ratio", float),
        "classical_runs": ("classical_runs", int),
    },
    "pulses": {
        "rabi_hz": ("pulses.rabi", _angular),
        "tau_s": ("pulses.tau", float),
        "coupling_hz": ("pulses.coupling", _angular),
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
            except ValueError as exc:
                raise ConfigError(f"{path}: bad value for [{section}] {key}: {raw!r}") from exc
    return overlay(base or HarnessConfig(), values, f"{path}: ")
