"""Command-line front end for the experiment campaigns.

Exit codes: 0 on success, 1 for configuration errors, 2 for numerical
failures (invariant breaches, no flagged outcome observed).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .deliberation import learning_demo
from .harness import (
    BASELINE_DD_NOISE,
    CONFIG_KEYS,
    ConfigError,
    HarnessConfig,
    classical_csv,
    dd_check,
    dd_curves_csv,
    dd_windows_csv,
    fit_linear,
    fit_power_law,
    load_config,
    overlay,
    ratio_csv,
    ratio_experiment,
    scaling_csv,
    scaling_experiment,
    sibling_path,
    write_plot_stub,
)
from .noise import NOISELESS, NoiseModel


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # Argument problems are configuration errors (exit code 1), not
        # argparse's default exit code.
        raise ConfigError(message)


def _add_common(p: argparse.ArgumentParser):
    # A flag's dest names the config field it sets (see harness.CONFIG_KEYS).
    # Unset flags stay None, so they leave the config file's values alone.
    p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    p.add_argument("--shots", type=int, default=None, help="shots per configuration (default 1600)")
    p.add_argument("--out", type=str, default=None, help="output CSV path")
    p.add_argument("--config", type=str, default=None, help="config file with [noise]/[experiment]/[pulses]")
    p.add_argument("--fidelity", choices=("gate", "pulse"), default=None, help="(default pulse)")
    p.add_argument("--detuning", dest="noise.detuning_ratio", metavar="DELTA", type=float, default=None,
                   help="relative detuning delta-omega/Omega")
    p.add_argument("--dephasing", dest="noise.dephasing_exponent", metavar="GAMMA", type=float, default=None,
                   help="dephasing exponent per diffusion step")
    p.add_argument("--detect", type=float, nargs=2, metavar=("DB", "DD"), default=None,
                   help="detection confusion: bright-as-dark, dark-as-bright")
    p.add_argument("--jitter", dest="noise.prep_epsilon_jitter", metavar="W", type=float, default=None,
                   help="preparation jitter half-width on epsilon")
    p.add_argument("--ideal", action="store_true", default=None, help="all noise off, exact distributions")
    p.add_argument("--plot-stub", action="store_true", help="emit a plotting script next to the CSV")


_FIELDS = {field for keys in CONFIG_KEYS.values() for field, _ in keys.values()}


def _build_config(args, default_noise: NoiseModel = NOISELESS) -> HarnessConfig:
    """Defaults, overlaid by the config file, overlaid by the flags given."""
    cfg = HarnessConfig(noise=default_noise)
    if args.config:
        cfg = load_config(args.config, cfg)
    given = {name: value for name, value in vars(args).items() if name in _FIELDS and value is not None}
    if args.detect is not None:
        given["noise.detect_bright_as_dark"], given["noise.detect_dark_as_bright"] = args.detect
    cfg = overlay(cfg, given)
    return replace(cfg, noise=NOISELESS) if args.ideal else cfg


def _write(path: str, text: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _cmd_scaling(args) -> int:
    cfg = _build_config(args)
    result = scaling_experiment(cfg)
    out = args.out or "scaling.csv"
    _write(out, scaling_csv(result))
    classical_out = sibling_path(out, "_classical.csv")
    _write(classical_out, classical_csv(result, cfg.classical_runs))
    if args.plot_stub:
        write_plot_stub(out, "epsilon", "cost")
    print(f"wrote {out} and {classical_out}")
    print(f"quantum exponent: {result.fit.exponent:.4f} +- {result.fit.exponent_err:.4f}")
    print(f"classical exponent: {result.classical_fit.exponent:.4f} +- {result.classical_fit.exponent_err:.4f}")
    return 0


def _cmd_ratio(args) -> int:
    cfg = _build_config(args)
    result = ratio_experiment(cfg)
    out = args.out or "ratio.csv"
    _write(out, ratio_csv(result))
    if args.plot_stub:
        write_plot_stub(out, "r_in", "r_out")
    print(f"wrote {out}")
    for k, fit in sorted(result.fits.items()):
        print(f"k={k}: slope {fit.slope:.4f} +- {fit.slope_err:.4f}, "
              f"intercept {fit.intercept:.4f} +- {fit.intercept_err:.4f}")
    return 0


def _cmd_dd_check(args) -> int:
    cfg = _build_config(args, default_noise=BASELINE_DD_NOISE)
    result = dd_check(cfg)
    out = args.out or "dd_curves.csv"
    _write(out, dd_curves_csv(result))
    windows_out = sibling_path(out, "_window.csv")
    _write(windows_out, dd_windows_csv(result))
    if args.plot_stub:
        write_plot_stub(out, "epsilon", "cost")
    print(f"wrote {out} and {windows_out}")
    for w in result.windows:
        print(f"detuning {w.detuning:+.3f}: window infidelity "
              f"ur14 {w.infidelity_ur14:.2e}, cpmg {w.infidelity_cpmg:.2e}, "
              f"unprotected {w.infidelity_none:.2e}")
    return 0


def _cmd_learn_demo(args) -> int:
    lines = ["seed,backend,interactions,up_calls"]
    totals = {"quantum": 0.0, "classical": 0.0}
    for backend in ("quantum", "classical"):
        for s in range(args.runs):
            rng = np.random.default_rng([args.seed, s])
            trace = learning_demo(args.actions, set(args.rewarded), backend, rng)
            totals[backend] += trace[-1].up_calls
            lines.append(f"{s},{backend},{len(trace)},{trace[-1].up_calls}")
    if args.out:
        _write(args.out, "\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    mq = totals["quantum"] / args.runs
    mc = totals["classical"] / args.runs
    print(f"mean cumulative calls over {args.runs} runs: quantum {mq:.2f}, classical {mc:.2f}")
    return 0


def _cmd_fit(args) -> int:
    import csv as _csv

    with open(args.input) as fh:
        rows = list(_csv.DictReader(fh))
    if not rows:
        raise ConfigError(f"{args.input}: no data rows")
    if args.kind == "power":
        cols = ("epsilon", "cost")
        if any(c not in rows[0] for c in cols):
            raise ConfigError(f"{args.input}: expected columns {cols}")
        pts = [(float(r["epsilon"]), float(r["cost"])) for r in rows]
        fit = fit_power_law(pts)
        print(f"exponent {fit.exponent:.6f} +- {fit.exponent_err:.6f}")
    else:
        cols = ("r_in", "r_out")
        if any(c not in rows[0] for c in cols):
            raise ConfigError(f"{args.input}: expected columns {cols}")
        pts = [(float(r["r_in"]), float(r["r_out"])) for r in rows]
        errs = [float(r["err_r_out"]) for r in rows] if "err_r_out" in rows[0] else None
        fit = fit_linear(pts, errs)
        print(f"slope {fit.slope:.6f} +- {fit.slope_err:.6f}, "
              f"intercept {fit.intercept:.6f} +- {fit.intercept_err:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qrps", description="rank-one quantum deliberation experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scaling", parents=[], help="cost scaling over the epsilon grid")
    _add_common(p)
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("ratio", help="output-ratio preservation experiment")
    _add_common(p)
    p.set_defaults(func=_cmd_ratio)

    p = sub.add_parser("dd-check", help="detuning sweep and decoupling-window comparison")
    _add_common(p)
    p.set_defaults(func=_cmd_dd_check)

    p = sub.add_parser("learn-demo", help="flag-based learning demo, quantum vs classical")
    p.add_argument("--actions", type=int, default=100)
    p.add_argument("--rewarded", type=int, nargs="+", default=[42])
    p.add_argument("--runs", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_learn_demo)

    p = sub.add_parser("fit", help="fit a power law or line to a CSV")
    p.add_argument("--kind", choices=("power", "linear"), default="power")
    p.add_argument("--input", type=str, required=True)
    p.set_defaults(func=_cmd_fit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
