"""Span tracing of qrps's public functions, installed from outside the package.

``Tracer.install`` replaces every listed function at each place a qrps module
binds it (``qrps.noise.apply`` as well as ``qrps.qsim.apply``), so calls from
one layer into another are caught.  Each span records its name, start, end
and parent; ``Tracer.metrics`` derives self times from them and computes the
work counters from the recorded arguments and results after the traced
section, so that counting adds no time inside it.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter as clock

# (span name, module, attribute).  A span name may cover several functions.
TRACED = (
    ("qsim.apply", "qsim", "apply"),
    ("qsim.embed_unitary", "qsim", "embed_unitary"),
    ("qsim.probabilities", "qsim", "probabilities"),
    ("qsim.sample_outcomes", "qsim", "sample_outcomes"),
    ("circuits.diffusion", "circuits", "diffusion"),
    ("circuits.prepare_alpha", "circuits", "prepare_alpha"),
    ("deliberation.deliberate", "deliberation", "deliberate"),
    ("deliberation.run_ideal_distribution", "deliberation", "run_ideal_distribution"),
    ("deliberation.learning_demo", "deliberation", "learning_demo"),
    ("deliberation.classical_cost_curve", "deliberation", "classical_cost_curve"),
    ("noise.compile_diffusion_schedule", "noise", "compile_diffusion_schedule"),
    ("noise.schedule_unitary", "noise", "schedule_unitary"),
    ("noise.simulate_schedule", "noise", "simulate_schedule"),
    ("noise.collective_dephasing", "noise", "collective_dephasing"),
    ("noise.noisy_distribution", "noise", "noisy_distribution"),
    ("noise.run_noisy", "noise", "run_noisy"),
    ("noise.window_infidelity", "noise", "window_infidelity"),
    ("noise.detection_confusion", "noise", "detection_confusion"),
    ("harness.scaling_experiment", "harness", "scaling_experiment"),
    ("harness.ratio_experiment", "harness", "ratio_experiment"),
    ("harness.dd_check", "harness", "dd_check"),
    ("harness.fit", "harness", "fit_power_law"),
    ("harness.fit", "harness", "fit_linear"),
    ("harness.csv", "harness", "scaling_csv"),
    ("harness.csv", "harness", "classical_csv"),
    ("harness.csv", "harness", "ratio_csv"),
    ("harness.csv", "harness", "dd_curves_csv"),
    ("harness.csv", "harness", "dd_windows_csv"),
    ("cli.main", "cli", "main"),
)
VALIDATE = "qsim.QuantumState.validate"
# Spans whose arguments or results feed a counter.
LOGGED = {"noise.schedule_unitary", "deliberation.deliberate", "deliberation.learning_demo", "harness.csv"}

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TRACED))

# (metric name, unit, better) for every per-layer metric the tracer produces.
METRICS = tuple(
    [m for name in SPAN_NAMES for m in ((f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"))]
    + [
        ("qsim.QuantumState.validations", "count", "lower"),
        ("qsim.QuantumState.validate_s", "s", "lower"),
        ("deliberation.deliberate.attempts", "count", "lower"),
        ("deliberation.deliberate.hit_ratio", "ratio", "higher"),
        ("deliberation.learning_demo.interactions", "count", "lower"),
        ("noise.schedule_unitary.pulses", "count", "lower"),
        ("noise.schedule_unitary.us_per_pulse", "us", "lower"),
        ("noise.schedule_unitary.reuse_ratio", "ratio", "higher"),
        ("harness.csv.bytes", "B", "lower"),
    ]
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.logs: dict[str, list] = defaultdict(list)
        self.schedule_signature: inspect.Signature | None = None

    def _wrap(self, name: str, fn):
        spans, stack, log = self.spans, self.stack, self.logs[name] if name in LOGGED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if log is not None:
                log.append((args, kwargs, result))
            return result

        return wrapper

    def install(self, q):
        """Wrap the listed functions in the freshly imported modules ``q``."""
        modules = [q.pkg, q.qsim, q.circuits, q.deliberation, q.noise, q.harness, q.cli]
        self.schedule_signature = inspect.signature(q.noise.schedule_unitary)
        for name, module, attr in TRACED:
            original = getattr(getattr(q, module), attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        cls = q.qsim.QuantumState
        cls.__post_init__ = self._wrap(VALIDATE, cls.__post_init__)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += end - start - inner
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["qsim.QuantumState.validations"] = calls[VALIDATE]
        out["qsim.QuantumState.validate_s"] = self_s[VALIDATE]

        records = [r for _, _, r in self.logs["deliberation.deliberate"]]
        attempts = sum(r.attempts for r in records)
        out["deliberation.deliberate.attempts"] = attempts
        out["deliberation.deliberate.hit_ratio"] = len(records) / attempts if attempts else 0.0
        out["deliberation.learning_demo.interactions"] = sum(
            len(trace) for _, _, trace in self.logs["deliberation.learning_demo"])

        seen, reused, pulses = set(), 0, 0
        for args, kwargs, _ in self.logs["noise.schedule_unitary"]:
            bound = self.schedule_signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            key = (a["schedule"].pulses, a["noise"].detuning_ratio, a["fidelity"])
            reused += key in seen
            seen.add(key)
            pulses += len(a["schedule"].pulses)
        n = calls["noise.schedule_unitary"]
        out["noise.schedule_unitary.pulses"] = pulses
        out["noise.schedule_unitary.us_per_pulse"] = 1e6 * self_s["noise.schedule_unitary"] / pulses if pulses else 0.0
        out["noise.schedule_unitary.reuse_ratio"] = reused / n if n else 0.0
        out["harness.csv.bytes"] = sum(len(text.encode()) for _, _, text in self.logs["harness.csv"])
        return out
