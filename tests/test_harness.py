"""Tests for the experiment campaigns, fits, CSV output, config, and CLI."""

import math
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qrps.deliberation
import qrps.noise
from qrps.cli import main as cli_main
from qrps.deliberation import grover_success, optimal_k, run_ideal
from qrps.harness import (
    BASELINE_DD_NOISE,
    DEFAULT_EPSILONS,
    RATIO_PAIRS,
    ConfigError,
    HarnessConfig,
    classical_csv,
    dd_check,
    dd_curves_csv,
    dd_windows_csv,
    fit_linear,
    fit_power_law,
    load_config,
    ratio_csv,
    ratio_experiment,
    scaling_csv,
    scaling_experiment,
)
from qrps.noise import NOISELESS, NoiseModel, PulseSettings, noisy_distribution, window_infidelity

# Measured success probabilities for the seven grid points (k = 1..7) and
# the measured ratio rows at one diffusion step, used as fit fixtures.
MEASURED_EPS_TILDE = (0.89, 0.70, 0.77, 0.76, 0.74, 0.76, 0.66)
MEASURED_RATIO_K1 = (
    (0.01, 0.075, 0.009),
    (0.36, 0.50, 0.03),
    (0.71, 0.89, 0.04),
    (1.06, 1.25, 0.06),
    (1.41, 1.48, 0.06),
    (1.76, 1.85, 0.10),
    (1.00, 1.17, 0.06),
)


# ----------------------------------------------------------------------- fits

def test_fit_power_law_recovers_exact_exponents():
    eps = np.array(DEFAULT_EPSILONS)
    for exponent in (0.5, 1.0):
        pts = [(e, e**-exponent) for e in eps]
        fit = fit_power_law(pts)
        assert abs(fit.exponent - exponent) < 1e-9
        assert fit.residual_rms < 1e-12


def test_fit_power_law_validation():
    with pytest.raises(ValueError):
        fit_power_law([(0.1, 1.0), (0.2, 2.0)])
    with pytest.raises(ValueError):
        fit_power_law([(0.1, 1.0), (0.1, 2.0), (0.1, 3.0)])
    with pytest.raises(ValueError):
        fit_power_law([(0.1, 1.0), (0.2, -2.0), (0.3, 3.0)])


def test_fit_power_law_on_measured_costs():
    pts = [
        (eps, (2 * k + 1) / et)
        for (eps, k), et in zip(
            ((e, optimal_k(e)) for e in DEFAULT_EPSILONS), MEASURED_EPS_TILDE
        )
    ]
    fit = fit_power_law(pts)
    assert abs(fit.exponent - 0.57) < 0.05 + fit.exponent_err


def test_fit_linear_exact_recovery():
    x = np.linspace(0.0, 2.0, 9)
    fit = fit_linear(list(zip(x, 1.1 * x + 0.05)))
    assert abs(fit.slope - 1.1) < 1e-9
    assert abs(fit.intercept - 0.05) < 1e-9
    fit_w = fit_linear(list(zip(x, x)), errors=[0.1] * len(x))
    assert abs(fit_w.slope - 1.0) < 1e-9
    assert abs(fit_w.intercept) < 1e-9


def test_fit_linear_validation():
    with pytest.raises(ValueError):
        fit_linear([(1.0, 1.0)])
    with pytest.raises(ValueError):
        fit_linear([(1.0, 1.0), (1.0, 2.0)])
    # Extreme finite inputs give a finite fit or fail by name: never a NaN, a
    # ZeroDivisionError or a RuntimeWarning.  The errors' scale alone does not
    # matter: the fit is the unit-error fit, with its errors scaled.
    pts = [(0.1, 0.2), (0.5, 0.6), (1.0, 1.1)]
    unit = fit_linear(pts, [1.0] * 3)
    for scale in (1e200, 1e-200):
        fit = fit_linear(pts, [scale] * 3)
        assert fit.slope == pytest.approx(unit.slope, rel=1e-12)
        assert fit.slope_err == pytest.approx(scale * unit.slope_err, rel=1e-12)
        assert fit.intercept_err == pytest.approx(scale * unit.intercept_err, rel=1e-12)
    for points, errors in [
        (pts, [0.01, 1e-200, 0.02]),
        (pts, [0.01, 1e200, 1e200]),
        ([(1e200, 0.2), (2e200, 0.6), (3e200, 1.1)], None),
        ([(1e200, 0.2), (2e200, 0.6), (3e200, 1.1)], [0.01, 0.01, 0.02]),
        ([(1e-200, 0.2), (2e-200, 0.6), (3e-200, 1.1)], None),
        ([(1.0, 1e300), (2.0, -1e300), (3.0, 1e300)], None),
    ]:
        with pytest.raises(ValueError, match=r"\bpoints\b.* no finite fit"):
            fit_linear(points, errors)


def test_fit_linear_on_measured_ratios_slope_above_one():
    pts = [(r_in, r_out) for r_in, r_out, _ in MEASURED_RATIO_K1]
    errs = [e for _, _, e in MEASURED_RATIO_K1]
    fit = fit_linear(pts, errs)
    assert fit.slope > 1.0


# ------------------------------------------------------------------- scaling

IDEAL_EPS_TILDE = (0.9932, 0.9993, 0.9998, 1.0000, 1.0000, 1.0000, 1.0000)


def test_scaling_ideal_matches_theory_column():
    result = scaling_experiment(HarnessConfig(ideal=True))
    for row, expected in zip(result.rows, IDEAL_EPS_TILDE):
        assert abs(row.eps_tilde - expected) < 5e-4
        assert abs(row.b00 - row.b01) < 1e-12
        assert sum(row.counts) == row.shots
        assert abs(row.cost - (2 * row.k + 1) / row.eps_tilde) < 1e-12
    assert [row.k for row in result.rows] == [1, 2, 3, 4, 5, 6, 7]


def test_scaling_ideal_exponents():
    result = scaling_experiment(HarnessConfig(ideal=True))
    assert 0.45 <= result.fit.exponent <= 0.55
    assert 0.95 <= result.classical_fit.exponent <= 1.05


def test_scaling_noisy_rows_satisfy_identities():
    cfg = HarnessConfig(noise=NoiseModel(dephasing_exponent=1 / 14), seed=5, shots=400)
    result = scaling_experiment(cfg)
    for row in result.rows:
        assert sum(row.counts) == 400
        assert abs(row.eps_tilde - (row.b00 + row.b01)) < 1e-12
        assert abs(row.cost - (2 * row.k + 1) / row.eps_tilde) < 1e-12
        expected_err = math.sqrt(row.eps_tilde * (1 - row.eps_tilde) / 400)
        assert abs(row.err_eps_tilde - expected_err) < 1e-12


# --------------------------------------------------------------------- ratio

def test_ratio_ideal_preserves_every_row():
    result = ratio_experiment(HarnessConfig(ideal=True))
    assert len(result.rows) == 13
    for row in result.rows:
        assert abs(row.r_out - row.r_in) < 1e-6
    for fit in result.fits.values():
        assert abs(fit.slope - 1.0) < 1e-6
        assert abs(fit.intercept) < 1e-6


def test_ratio_input_ratios_match_design_values():
    result = ratio_experiment(HarnessConfig(ideal=True))
    r_by_pair = {(row.k, row.a00): row.r_in for row in result.rows}
    assert abs(r_by_pair[(3, 0.03357)] - 2.00) < 1e-3
    assert abs(r_by_pair[(1, 0.00271)] - 0.01) < 2e-5


@pytest.fixture(scope="module")
def ratio_campaigns():
    # Ideal, and noisy with a preparation jitter that moves the simulated epsilon.
    noisy = HarnessConfig(noise=NoiseModel(prep_epsilon_jitter=0.02), fidelity="gate", shots=200)
    return ratio_experiment(HarnessConfig(ideal=True)), ratio_experiment(noisy)


@pytest.mark.parametrize("i", range(len(RATIO_PAIRS)), ids=[f"{a00}-{a01}" for a00, a01 in RATIO_PAIRS])
def test_ratio_pair_runs_at_the_optimal_k_of_its_flagged_weight(ratio_campaigns, i):
    a00, a01 = RATIO_PAIRS[i]
    k = optimal_k(a00 + a01)
    assert k == (1 if i < 7 else 3)
    for result in ratio_campaigns:
        row = result.rows[i]
        assert (row.k, row.a00, row.a01) == (k, a00, a01)
        assert len(result.fits) == 2 and k in result.fits


# ------------------------------------------------------------------ dd check

def test_dd_check_zero_detuning_matches_ideal():
    cfg = HarnessConfig(
        noise=NoiseModel(), detunings=(0.0,), epsilons=(0.2742, 0.0504)
    )
    result = dd_check(cfg)
    for point in result.curves:
        k = optimal_k(point.epsilon)
        assert abs(point.eps_tilde - grover_success(point.epsilon, k)) < 1e-9


def test_dd_check_cost_ordering_and_anchor():
    cfg = HarnessConfig(noise=BASELINE_DD_NOISE, detunings=(0.0, -0.04, -0.08))
    result = dd_check(cfg)
    by_delta = {}
    for p in result.curves:
        by_delta.setdefault(p.detuning, []).append(p)
    for a, b in ((-0.08, -0.04), (-0.04, 0.0)):
        for pa, pb in zip(by_delta[a], by_delta[b]):
            assert pa.cost >= pb.cost, (a, b, pa.epsilon)
    anchor = [p for p in by_delta[-0.04] if p.k == 6]
    assert abs(anchor[0].eps_tilde - 0.77) < 0.05
    assert len(result.windows) == 2
    for w in result.windows:
        assert w.infidelity_ur14 < w.infidelity_cpmg
        assert w.infidelity_ur14 < w.infidelity_none


def test_dd_check_honours_fidelity():
    settings = PulseSettings(dd_sets=2)
    cfg = HarnessConfig(noise=BASELINE_DD_NOISE, detunings=(0.0, -0.04), epsilons=(0.2742, 0.0987),
                        pulses=settings)
    gate = dd_check(replace(cfg, fidelity="gate"))
    pulse = dd_check(cfg)
    for point, other in zip(gate.curves, pulse.curves):
        noise = replace(BASELINE_DD_NOISE, detuning_ratio=point.detuning)
        p = noisy_distribution(point.epsilon, 1.0, noise, "gate", k=point.k, settings=settings)
        assert point.eps_tilde == float(p[0] + p[1])
        if point.detuning != 0.0:
            assert point.eps_tilde != other.eps_tilde
    (window,) = gate.windows
    for scheme, value in zip(("ur14", "cpmg", "none"), window[1:]):
        assert value == window_infidelity(-0.04, settings, scheme, "gate")


def test_ideal_config_ignores_the_noise_model():
    # ideal means noiseless in every campaign; dd_check is the one that reads
    # the noise model in ideal mode.
    grid = {"detunings": (0.0, -0.04), "epsilons": (0.2742, 0.0504)}
    cfg = HarnessConfig(ideal=True, noise=BASELINE_DD_NOISE, **grid)
    assert cfg.noise == NOISELESS
    assert dd_check(cfg) == dd_check(HarnessConfig(ideal=True, **grid))


# ----------------------------------------------------------------- CSV output

def test_scaling_csv_layout_and_determinism():
    cfg = HarnessConfig(noise=NoiseModel(dephasing_exponent=1 / 14), seed=3, shots=200)
    a = scaling_csv(scaling_experiment(cfg))
    b = scaling_csv(scaling_experiment(cfg))
    assert a == b
    lines = a.splitlines()
    assert lines[0] == "k,epsilon,a00,a01,shots,c00,c01,c10,c11,b00,b01,eps_tilde,err_eps_tilde,cost,err_cost"
    assert len(lines) == 8
    assert a.endswith("\n")
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "0.2742"


def test_ratio_csv_layout():
    text = ratio_csv(ratio_experiment(HarnessConfig(ideal=True)))
    lines = text.splitlines()
    assert lines[0] == "k,a00,a01,r_in,b00,b01,r_out,err_r_out"
    assert len(lines) == 14
    # floats carry six significant digits
    assert lines[1].split(",")[3] == "0.00998379"


def test_dd_csv_layouts():
    cfg = HarnessConfig(noise=BASELINE_DD_NOISE, detunings=(0.0, -0.04), epsilons=(0.2742,))
    result = dd_check(cfg)
    curves = dd_curves_csv(result)
    windows = dd_windows_csv(result)
    assert curves.splitlines()[0] == "detuning,k,epsilon,eps_tilde,cost"
    assert windows.splitlines()[0] == "detuning,infidelity_ur14,infidelity_cpmg,infidelity_none"


def test_classical_csv_layout():
    result = scaling_experiment(HarnessConfig(ideal=True, epsilons=(0.5, 0.25, 0.125)))
    text = classical_csv(result, 1600)
    assert text.splitlines()[0] == "epsilon,runs,mean_cost"
    assert len(text.splitlines()) == 4


# -------------------------------------------------------------------- config

def test_load_config_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "[noise]\n"
        "detuning_ratio = -0.04\n"
        "dephasing_exponent = 0.0714\n"
        "[experiment]\n"
        "epsilons = 0.2742, 0.0504\n"
        "shots = 200\n"
        "seed = 9\n"
        "fidelity = gate\n"
        "[pulses]\n"
        "rabi_hz = 20920\n"
        "dd_sets = 5\n"
    )
    cfg = load_config(str(path))
    assert cfg.noise.detuning_ratio == -0.04
    assert cfg.epsilons == (0.2742, 0.0504)
    assert cfg.shots == 200 and cfg.seed == 9 and cfg.fidelity == "gate"
    assert abs(cfg.pulses.rabi - 2 * math.pi * 20920) < 1e-9
    assert cfg.pulses.dd_sets == 5


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[noise]\ndetuning = -0.04\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert "detuning" in str(err.value) and "[noise]" in str(err.value)


def test_load_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[lasers]\npower = 3\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_load_config_rejects_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[experiment]\nshots = many\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert "shots" in str(err.value)


# ----------------------------------------------------------------------- CLI

def test_cli_scaling_ideal_round_trip(tmp_path):
    out = str(tmp_path / "scaling.csv")
    assert cli_main(["scaling", "--ideal", "--out", out]) == 0
    text = Path(out).read_text()
    assert text.startswith("k,epsilon,")
    assert os.path.exists(str(tmp_path / "scaling_classical.csv"))
    # byte-identical rerun
    out2 = str(tmp_path / "scaling2.csv")
    assert cli_main(["scaling", "--ideal", "--out", out2]) == 0
    assert Path(out2).read_text() == text


def test_cli_ratio_and_fit(tmp_path, capsys):
    out = str(tmp_path / "ratio.csv")
    assert cli_main(["ratio", "--ideal", "--out", out]) == 0
    assert cli_main(["fit", "--kind", "linear", "--input", out]) == 0
    captured = capsys.readouterr().out
    assert "slope 1.000000" in captured


def test_cli_fit_round_trips_sampled_ratio_csv(tmp_path, capsys):
    # The CSV keeps six significant digits and fit prints six decimals, so
    # the printed fit matches the in-memory one to 1e-5 relative, or to the
    # print resolution for a near-zero intercept.
    out = str(tmp_path / "ratio.csv")
    assert cli_main(["ratio", "--out", out]) == 0
    rows = ratio_experiment(HarnessConfig()).rows
    assert all(r.err_r_out > 0.0 for r in rows)
    expected = fit_linear([(r.r_in, r.r_out) for r in rows], [r.err_r_out for r in rows])
    capsys.readouterr()
    assert cli_main(["fit", "--kind", "linear", "--input", out]) == 0
    printed = capsys.readouterr().out
    m = re.fullmatch(r"slope (\S+) \+- (\S+), intercept (\S+) \+- (\S+)\n", printed)
    assert m, printed
    want = (expected.slope, expected.slope_err, expected.intercept, expected.intercept_err)
    assert [float(v) for v in m.groups()] == pytest.approx(want, rel=1e-5, abs=1e-6)


def test_cli_learn_demo(tmp_path, capsys):
    out = str(tmp_path / "learn.csv")
    code = cli_main(
        ["learn-demo", "--actions", "20", "--rewarded", "3", "--runs", "20",
         "--seed", "1", "--out", out]
    )
    assert code == 0
    assert "quantum" in capsys.readouterr().out
    assert len(Path(out).read_text().splitlines()) == 41
    # Every action rewarded: the first draw always hits, in both backends.
    code = cli_main(["learn-demo", "--actions", "2", "--rewarded", "0", "1", "--runs", "3", "--out", out])
    assert code == 0
    rows = Path(out).read_text().splitlines()[1:]
    assert len(rows) == 6 and all(row.split(",")[2:] == ["1", "1"] for row in rows)


def test_cli_exit_codes(tmp_path, capsys):
    assert cli_main(["scaling", "--bogus-flag"]) == 1
    assert cli_main(["fit", "--input", str(tmp_path / "missing.csv")]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("epsilon,cost\n0.1,-1\n0.2,2\n0.3,3\n")
    assert cli_main(["fit", "--input", str(bad)]) == 1  # a non-positive power-law cell
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(bad) in err and "positive" in err, err
    words = tmp_path / "words.csv"
    words.write_text("epsilon,cost\n0.1,ten\n0.2,2\n0.3,3\n")
    assert cli_main(["fit", "--input", str(words)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(words) in err and "'cost'" in err, err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[noise]\nwibble = 1\n")
    assert cli_main(["scaling", "--ideal", "--config", str(cfg)]) == 1
    assert "unknown key 'wibble' in [noise]" in capsys.readouterr().err
    assert cli_main(["scaling", "--ideal", "--config", str(tmp_path / "missing.cfg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config") and "missing.cfg" in err, err
    # One shot cannot fill both |00> and |01>; at seed 0 the first row's shot lands in one of them.
    assert cli_main(["ratio", "--shots", "1", "--out", str(tmp_path / "ratio.csv")]) == 2
    err = capsys.readouterr().err
    assert err == "numerical failure: ratio undefined: empty flagged outcome\n", err
    # A NaN or infinite cell, or too few rows for the fit, is the input
    # file's fault, named with its column where it has one.
    for cell in ("nan", "inf", "-inf"):
        cells = tmp_path / f"{cell}.csv"
        cells.write_text(f"epsilon,cost\n0.1,{cell}\n0.2,2\n0.3,3\n")
        assert cli_main(["fit", "--input", str(cells)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(cells) in err and "'cost'" in err, err
    two = tmp_path / "two.csv"
    two.write_text("epsilon,cost\n0.1,10\n0.2,5\n")
    assert cli_main(["fit", "--input", str(two)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(two) in err and "at least 3" in err, err
    # A line through equal abscissae and a file without a header are the
    # input file's fault too.
    flat = tmp_path / "flat.csv"
    flat.write_text("r_in,r_out\n1,2\n1,3\n1,4\n")
    assert cli_main(["fit", "--kind", "linear", "--input", str(flat)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(flat) in err and "degenerate abscissa" in err, err
    # So are extreme finite cells that leave the line no finite fit.
    for name, rows in [
        ("tiny_err", "0.1,0.2,0.01\n0.5,0.6,1e-200\n1.0,1.1,0.02\n"),
        ("huge_err", "0.1,0.2,0.01\n0.5,0.6,1e200\n1.0,1.1,1e200\n"),
        ("huge_r_in", "1e200,0.2,0.01\n2e200,0.6,0.01\n3e200,1.1,0.02\n"),
    ]:
        extreme = tmp_path / f"{name}.csv"
        extreme.write_text("r_in,r_out,err_r_out\n" + rows)
        assert cli_main(["fit", "--kind", "linear", "--input", str(extreme)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(extreme) in err and "no finite fit" in err, err
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    for kind in ("power", "linear"):
        assert cli_main(["fit", "--kind", kind, "--input", str(empty)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(empty) in err and "expected columns" in err, err


@pytest.mark.parametrize("pulses", ["dd_sets = 13", "tau_s = 0.001"])
@pytest.mark.parametrize("argv", [["scaling"], ["scaling", "--ideal"], ["dd-check"]])
def test_cli_infeasible_calibration_is_config_error(tmp_path, capsys, pulses, argv):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[pulses]\n{pulses}\n")
    assert cli_main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 1
    assert "config error:" in capsys.readouterr().err


def test_cli_window_coupling_follows_tau(tmp_path, capsys):
    # The coupling is pi/(2 tau), not a setting: any tau whose pi pulses fit
    # runs, and a coupling key is unknown.
    cfg = tmp_path / "tau.cfg"
    cfg.write_text("[pulses]\ntau_s = 0.004\n")
    out = tmp_path / "out.csv"
    assert cli_main(["dd-check", "--config", str(cfg), "--out", str(out)]) == 0
    assert load_config(str(cfg)).pulses == PulseSettings(tau=0.004)
    cfg.write_text("[pulses]\ncoupling_hz = 59\n")
    assert cli_main(["dd-check", "--config", str(cfg), "--out", str(tmp_path / "other.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "unknown key 'coupling_hz' in [pulses]" in err, err
    assert not (tmp_path / "other.csv").exists()


@pytest.mark.parametrize(
    "argv, config, field",
    [
        (["ratio", "--dephasing", "nan"], None, "dephasing_exponent"),
        (["ratio", "--dephasing", "inf"], None, "dephasing_exponent"),
        (["scaling", "--jitter", "nan"], None, "prep_epsilon_jitter"),
        (["scaling", "--detuning", "nan"], None, "detuning_ratio"),
        (["scaling"], "[pulses]\nrabi_hz = nan\n", "rabi"),
        (["scaling"], "[pulses]\ntau_s = nan\n", "tau"),
        (["dd-check"], "[pulses]\nrabi_hz = inf\n", "rabi"),
        (["scaling"], "[experiment]\nratio = nan\n", "ratio"),
        (["scaling", "--ideal"], "[experiment]\nratio = inf\n", "ratio"),
    ],
)
def test_cli_non_finite_value_is_config_error(tmp_path, capsys, argv, config, field):
    # Comparisons with NaN are false, so a check written as "reject if x < 0"
    # would let NaN through and silently switch a noise channel off.
    if config is not None:
        (tmp_path / "bad.cfg").write_text(config)
        argv = [*argv, "--config", str(tmp_path / "bad.cfg")]
    assert cli_main([*argv, "--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert re.search(rf"\b{field} must lie in", err), err
    assert not (tmp_path / "out.csv").exists()


def test_harness_config_rejects_negative_seed_and_empty_classical_runs():
    with pytest.raises(ConfigError, match=r"\bseed must be nonnegative"):
        HarnessConfig(seed=-1)
    with pytest.raises(ConfigError, match=r"\bclassical_runs must be >= 1"):
        HarnessConfig(classical_runs=0)
    HarnessConfig(seed=0, classical_runs=1)


@pytest.mark.parametrize("value", [2.5, math.nan, math.inf])
@pytest.mark.parametrize("field", ["seed", "classical_runs"])
def test_harness_config_rejects_a_seed_or_run_count_that_is_not_an_integer(field, value):
    # Without the check these construct, and the campaign fails later with numpy's TypeError.
    with pytest.raises(ConfigError, match=rf"\b{field} must be .* and an integer"):
        HarnessConfig(ideal=True, **{field: value})


@pytest.mark.parametrize("shots", [2.5, math.nan, math.inf, 0])
def test_harness_config_rejects_a_shot_count_that_is_not_an_integer(shots):
    # 2.5 and NaN used to construct and fail later inside a campaign.
    with pytest.raises(ConfigError, match=r"\bshots must be >= 1 and an integer"):
        HarnessConfig(shots=shots, ideal=True)


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["learn-demo", "--runs", "0"], None, "--runs must be >= 1"),
        (["learn-demo", "--runs", "-2"], None, "--runs must be >= 1"),
        (["learn-demo", "--seed", "-1"], None, "--seed must be nonnegative"),
        (["scaling", "--ideal", "--seed", "-3"], None, "seed must be nonnegative"),
        (["scaling", "--ideal"], "[experiment]\nseed = -1\n", "seed must be nonnegative"),
        (["scaling", "--ideal"], "[experiment]\nclassical_runs = 0\n", "classical_runs must be >= 1"),
        (["learn-demo", "--actions", "1"], None, "--actions 1 --rewarded 42: num_actions must be >= 2"),
        (["learn-demo", "--actions", "0"], None, "--actions 0 --rewarded 42: num_actions must be >= 2"),
        (["learn-demo", "--rewarded", "500"], None, "--actions 100 --rewarded 500: rewarded actions out of range"),
        (["learn-demo", "--rewarded", "-1"], None, "--actions 100 --rewarded -1: rewarded actions out of range"),
        (["scaling", "--ideal"], "[experiment]\nepsilons = 0.1, 0.2\n", "at least 3 distinct epsilons"),
        (["scaling", "--ideal"], "[experiment]\nepsilons = 0.1, 0.1, 0.1\n", "at least 3 distinct epsilons"),
        (["dd-check"], "[experiment]\nideal = ture\n", "bad value for [experiment] ideal: 'ture'"),
        (["learn-demo", "--rewarded", "100"], None, "--actions 100 --rewarded 100: rewarded actions out of range"),
        (["scaling", "--ideal", "--shots", "0"], None, "shots must be >= 1"),
        # epsilons whose optimal_k exceeds the step cap used to loop ~7.9e149 steps
        (["scaling", "--ideal"], "[experiment]\nepsilons = 1e-300, 0.1, 0.2\n", "epsilon 1e-300: k must be in [0, 1000000]"),
        (["dd-check"], "[experiment]\nepsilons = 1e-300, 0.1, 0.2\n", "epsilon 1e-300: k must be in [0, 1000000]"),
        (["scaling", "--ideal"], "[experiment]\nfidelity = Pulse\n", "fidelity must be 'gate' or 'pulse'"),
        (["scaling", "--ideal"], "fidelity = Pulse\n", "malformed config"),
    ],
)
def test_cli_bad_run_count_or_seed_is_config_error(tmp_path, capsys, argv, config, message):
    # Before these checks, a zero run count divided by zero, a negative seed
    # failed inside numpy, and an action count or rewarded action out of range
    # was reported as a numerical failure, all with exit code 2 or a traceback.
    if config is not None:
        (tmp_path / "bad.cfg").write_text(config)
        argv = [*argv, "--config", str(tmp_path / "bad.cfg")]
    assert cli_main([*argv, "--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert message in err, err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("ideal", [False, True])
def test_non_unitary_step_fails_at_the_boundary(monkeypatch, request, tmp_path, ideal):
    # States evolve as unvalidated arrays inside the step loops; a step that
    # is not unitary must still fail where the final state is validated.  The
    # noisy path's kick blocks are scaled: the memoised middles would keep a
    # scaled rz after the test, so the memo is emptied when it ends.
    request.addfinalizer(qrps.noise._step_middles.cache_clear)
    module, name = (qrps.deliberation, "diffusion") if ideal else (qrps.noise, "_kick_unitary")
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: 1.01 * original(*args, **kwargs))
    with pytest.raises(ValueError):
        if ideal:
            run_ideal(0.0504, 1.0)
        else:
            noisy_distribution(0.0504, 1.0, NoiseModel(dephasing_exponent=0.1), "pulse")
    argv = ["scaling", "--out", str(tmp_path / "scaling.csv")] + (["--ideal"] if ideal else [])
    assert cli_main(argv) == 2


def test_cli_config_file_beats_defaults_and_flags_beat_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[experiment]\nshots = 7\n")
    out = str(tmp_path / "scaling.csv")

    def shots_column(*flags):
        assert cli_main(["scaling", "--ideal", "--config", str(cfg), "--out", out, *flags]) == 0
        return {line.split(",")[4] for line in Path(out).read_text().splitlines()[1:]}

    assert shots_column() == {"7"}
    assert shots_column("--shots", "5") == {"5"}


def test_cli_ideal_in_config_file_switches_noise_off(tmp_path):
    # [experiment] ideal = true acts as --ideal does, also over [noise] values.
    cfg = tmp_path / "ideal.cfg"
    cfg.write_text("[experiment]\nideal = true\n[noise]\ndetuning_ratio = -0.04\n")
    written = []
    for name, flags in (("file", ["--config", str(cfg)]), ("flag", ["--ideal"])):
        assert cli_main(["dd-check", "--out", str(tmp_path / f"{name}.csv"), *flags]) == 0
        written.append([(tmp_path / f"{name}{suffix}.csv").read_bytes() for suffix in ("", "_window")])
    assert written[0] == written[1]


def test_cli_dd_check_ignores_detuning_jitter_shots_and_seed(tmp_path):
    # dd-check replaces the detuning with each swept value and evaluates exact
    # distributions, so these four global flags leave both CSVs as they are.
    written = []
    for name, flags in (("plain", []), ("flags", ["--detuning", "-0.05", "--jitter", "0.01", "--shots", "7",
                                                  "--seed", "3"])):
        assert cli_main(["dd-check", "--out", str(tmp_path / f"{name}.csv"), *flags]) == 0
        written.append([(tmp_path / f"{name}{suffix}.csv").read_bytes() for suffix in ("", "_window")])
    assert written[0] == written[1]


def test_cli_plot_stub(tmp_path):
    # Each campaign's stub compiles and names its CSV and the two columns it
    # plots, which the CSV has.  The stub is compiled, never run, so the
    # test needs no matplotlib.
    for command, columns in (("scaling", ("epsilon", "cost")), ("ratio", ("r_in", "r_out")),
                             ("dd-check", ("epsilon", "cost"))):
        out = str(tmp_path / f"{command}.csv")
        assert cli_main([command, "--ideal", "--out", out, "--plot-stub"]) == 0
        stub = tmp_path / f"{command}_plot.py"
        text = stub.read_text()
        compile(text, str(stub), "exec")
        assert all(repr(name) in text for name in (out, *columns)), text
        assert set(columns) <= set(Path(out).read_text().splitlines()[0].split(","))
