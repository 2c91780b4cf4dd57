"""Tests for the record rule: plain records are NamedTuples, and only types
that validate on construction or hash by identity are dataclasses."""

import dataclasses
import inspect

import pytest

import qrps
from qrps import circuits, cli, deliberation, harness, noise, qsim

# Field order of each record, as the earlier dataclasses declared it.
RECORD_FIELDS = {
    circuits.PreparationAngles: ("theta1", "theta2"),
    deliberation.DeliberationRecord: ("action", "attempts", "k"),
    noise.RFPulse: ("qubit", "angle", "phase", "start", "duration"),
    noise.ZZSegment: ("start", "duration", "coupling"),
    noise.RunResult: ("k", "epsilon", "a00", "a01", "shots", "counts", "b00", "b01",
                      "eps_tilde", "err_eps_tilde", "cost", "err_cost"),
    harness.PowerLawFit: ("exponent", "exponent_err", "intercept", "residual_rms"),
    harness.LinearFit: ("slope", "slope_err", "intercept", "intercept_err", "residual_rms"),
    harness.ScalingResult: ("rows", "fit", "classical", "classical_fit"),
    harness.RatioRow: ("k", "a00", "a01", "r_in", "b00", "b01", "r_out", "err_r_out"),
    harness.RatioResult: ("rows", "fits"),
    harness.DDCurvePoint: ("detuning", "k", "epsilon", "eps_tilde", "cost"),
    harness.DDWindowRow: ("detuning", "infidelity_ur14", "infidelity_cpmg", "infidelity_none"),
    harness.DDCheckResult: ("curves", "windows"),
}


@pytest.mark.parametrize("record", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_record_is_an_immutable_named_tuple(record):
    assert record._fields == RECORD_FIELDS[record]
    value = record._make(range(len(record._fields)))
    with pytest.raises(AttributeError):
        setattr(value, record._fields[0], -1)
    with pytest.raises(AttributeError):
        value.extra = -1


def test_every_dataclass_validates_on_construction():
    classes = {
        cls for module in (qsim, circuits, deliberation, noise, harness, cli, qrps)
        for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__.startswith("qrps")
    }
    validating = {cls for cls in classes if dataclasses.is_dataclass(cls)}
    assert {cls.__name__ for cls in validating} == {
        "QuantumState", "StationaryDistribution", "NoiseModel", "PulseSettings",
        "PulseSchedule", "HarnessConfig",
    }
    assert all("__post_init__" in vars(cls) for cls in validating)
