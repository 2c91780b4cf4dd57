"""The three workloads of the qrps benchmark, plus the traced coverage slice
and the untraced baseline probe.

A workload is a sequence of passes.  A pass is a fixed list of operations
whose inputs depend only on the seed; the benchmark draws them with its own
generator, so the program sees only the generated values.  run.py imports
qrps afresh before every pass, so no program state carries from one pass
into the next, as with separate command-line runs.

Each workload provides ``inputs()``, ``warm_up(q)``, ``run_pass(q, inputs)``
and ``check(inputs, payload)``.  ``q`` is the namespace of freshly
imported qrps modules.  ``run_pass`` returns the latencies of the pass's
primary operations, named sub-timings and a payload, and for detuning_scan
the speed probe's reading around each of these calls; ``check`` compares the
payload with oracles computed here, without calling the program, and returns
(operations attempted, failure messages).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from time import perf_counter as clock

import numpy as np

# The package's DEFAULT_EPSILONS, copied so the inputs stay fixed if the
# package's defaults change.
EPSILONS = (0.2742, 0.0987, 0.0504, 0.0305, 0.0204, 0.0146, 0.0110)
EPS_RANGE = (0.011, 0.2742)
RATIO_RANGE = (0.01, 2.0)
DETUNING_RANGE = (-0.08, 0.08)
# Valid decoupling set counts at the default calibration; 13 sets no longer
# fit their pi pulses into the window and are rejected by the program.
DD_SETS = tuple(range(1, 13))
# The diffusion count of each detuning_scan slot: 4, 6, 4, 4, 3, 2 and 1 slots
# for k = 1..7, the 24 slots shared out by the log-width of the epsilon
# interval of each k within EPS_RANGE.
SCAN_KS = (1,) * 4 + (2,) * 6 + (3,) * 4 + (4,) * 4 + (5,) * 3 + (6,) * 2 + (7,)
SHOTS = 1600

# The README's full [noise] values.
FULL_NOISE = dict(
    detuning_ratio=-0.04,
    dephasing_exponent=0.0714,
    detect_bright_as_dark=0.06,
    detect_dark_as_bright=0.03,
    prep_epsilon_jitter=0.0025,
)
NOISE_FLAGS = [
    "--detuning", "-0.04", "--dephasing", "0.0714",
    "--detect", "0.06", "0.03", "--jitter", "0.0025",
]

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
GOLDEN_SEED = 0


def expected_k(eps: float) -> int:
    """Optimal diffusion count round(pi / (4 sqrt(eps)) - 1/2), half away from zero."""
    return max(0, math.floor(math.pi / (4.0 * math.sqrt(eps))))


def eps_with_k(gen: np.random.Generator, k: int) -> float:
    """Epsilon log-uniform over the part of EPS_RANGE whose optimal count is k."""
    lo = max(EPS_RANGE[0], (math.pi / (4 * (k + 1))) ** 2)
    hi = min(EPS_RANGE[1], (math.pi / (4 * k)) ** 2)
    return hi * (lo / hi) ** gen.random()  # in (lo, hi]


def grover(eps: float, k: int) -> float:
    """Closed-form flagged probability after k diffusion steps."""
    return math.sin((2 * k + 1) * math.asin(math.sqrt(eps))) ** 2


def new_seed(gen: np.random.Generator) -> int:
    return int(gen.integers(0, 2**63))


@dataclass
class Pass:
    """Times of one pass: per operation the times of its program calls, and
    per named part the times of the part's calls.  A workload that probes
    the machine's speed also gives, in the same shapes, the speed probe's
    reading around each call."""

    ops: list[list[float]]
    parts: dict[str, list[float]]
    payload: dict = field(default_factory=dict)
    op_probes: list[list[float]] | None = None
    part_probes: dict[str, list[float]] | None = None


def guarded(fn, *args, **kwargs):
    """Call ``fn``; an exception becomes a failed operation, not a crashed run."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
        return None, f"{type(exc).__name__}: {exc}"


def timed(times: list[float], fn, *args, **kwargs):
    """``guarded`` call whose duration is appended to ``times``."""
    t = clock()
    out = guarded(fn, *args, **kwargs)
    times.append(clock() - t)
    return out


# The speed probe's fixed work: small complex matrix products and Python
# arithmetic, the mix that qrps's noise path spends its time on.
_PROBE_MATRIX = np.exp(1j * np.arange(16).reshape(4, 4) / 7.0)


def speed_probe() -> float:
    """Shorter of two timings of a fixed piece of work of about 0.2 ms.

    Its time tracks how fast the machine runs this kind of code at the
    moment; the work never changes, so it does not depend on qrps.
    """
    best = math.inf
    for _ in range(2):
        t = clock()
        u = np.eye(4, dtype=complex)
        for _ in range(60):
            u = _PROBE_MATRIX @ u
            sum(j * 0.5 for j in range(20))
        best = min(best, clock() - t)
    return best


def probed(times: list[float], probes: list[float], fn, *args, **kwargs):
    """``timed`` call with the mean speed-probe reading just before and just
    after it appended to ``probes``."""
    before = speed_probe()
    out = timed(times, fn, *args, **kwargs)
    probes.append(0.5 * (before + speed_probe()))
    return out


class NoisyCampaigns:
    """`qrps scaling` and `qrps ratio` at pulse fidelity with full noise, then
    `qrps dd-check` at its defaults, in-process through ``qrps.cli.main``."""

    parts = ("scaling_s", "ratio_s", "dd_check_s")
    op_parts = parts  # each command is both an operation and a named part

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.first_digests: dict[str, str] | None = None
        with open(GOLDEN_PATH) as fh:
            self.golden = json.load(fh)

    def inputs(self):
        return campaign_commands(self.seed, self.workdir)

    def warm_up(self, q):
        run_cli(q, ["ratio", "--ideal", "--out", os.path.join(self.workdir, "warm_up.csv")])

    def run_pass(self, q, commands) -> Pass:
        parts, codes = {}, {}
        for name, argv in commands:
            times = parts[f"{name}_s"] = []
            t = clock()
            codes[name] = run_cli(q, argv)
            times.append(clock() - t)
        return Pass(list(parts.values()), parts, {"codes": codes})

    def check(self, commands, payload) -> tuple[int, list[str]]:
        digests = {}
        for fname in os.listdir(self.workdir):
            with open(os.path.join(self.workdir, fname), "rb") as fh:
                digests[fname] = hashlib.sha256(fh.read()).hexdigest()
            os.remove(os.path.join(self.workdir, fname))
        # The golden digests hold for the default seed; at any seed the CSVs
        # must repeat the first pass's bytes.
        expected = self.golden if self.seed == GOLDEN_SEED else self.first_digests or digests
        self.first_digests = self.first_digests or digests
        failures = []
        for name, (code, output) in payload["codes"].items():
            problems = [f"exit code {code}: {output.strip()[-200:]}"] if code != 0 else []
            for fname in CAMPAIGN_FILES[name]:
                if fname not in digests:
                    problems.append(f"{fname} missing")
                elif digests[fname] != expected.get(fname):
                    problems.append(f"{fname} differs from the " +
                                    ("golden digest" if expected is self.golden else "first pass"))
            if problems:
                failures.append(f"{name}: " + "; ".join(problems))
        return len(commands), failures


CAMPAIGN_FILES = {
    "scaling": ("scaling.csv", "scaling_classical.csv"),
    "ratio": ("ratio.csv",),
    "dd_check": ("dd_curves.csv", "dd_curves_window.csv"),
}


def campaign_commands(seed: int, outdir: str) -> list[tuple[str, list[str]]]:
    """The three campaign command lines; CSVs go to ``outdir``."""
    s = ["--seed", str(seed)]
    return [
        ("scaling", ["scaling", *s, "--fidelity", "pulse", *NOISE_FLAGS,
                     "--out", os.path.join(outdir, "scaling.csv")]),
        ("ratio", ["ratio", *s, "--fidelity", "pulse", *NOISE_FLAGS,
                   "--out", os.path.join(outdir, "ratio.csv")]),
        ("dd_check", ["dd-check", *s, "--out", os.path.join(outdir, "dd_curves.csv")]),
    ]


def run_cli(q, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code, err = guarded(q.cli.main, argv)
    if err is not None:
        return -1, err
    return code, buf.getvalue()


class DeliberationMC:
    """Seeded `deliberate` calls on both backends over the package's epsilon
    grid, `qrps learn-demo` episodes, and the ideal scaling and ratio campaigns."""

    op_parts = ()
    parts = ("learn_demo_s", "campaigns_s")
    ratios_per_eps = 12
    calls_per_group = 6
    episodes = 50

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.learn_csv = os.path.join(workdir, "learn.csv")

    def inputs(self):
        """Stationary distributions drawn from the seed.

        Each group of calls gets a random stream that depends on its index
        alone.  Neither backend's attempt count depends on the ratio, so the
        attempt counts, which set the latency tail, are the same for every
        seed; with seeded streams the tail would move with the luck of ten
        draws.
        """
        gen = np.random.default_rng([self.seed, 2])
        groups = []
        for eps in EPSILONS:
            for ratio in gen.uniform(*RATIO_RANGE, self.ratios_per_eps):
                for backend in ("quantum", "classical"):
                    groups.append((eps, float(ratio), backend, [2, len(groups)]))
        learn = ["learn-demo", "--actions", "100", "--rewarded", "42", "--runs", str(self.episodes),
                 "--seed", str(int(gen.integers(0, 2**31))), "--out", self.learn_csv]
        return {"groups": groups, "learn_argv": learn, "campaign_seed": int(gen.integers(0, 2**31))}

    def warm_up(self, q):
        dist = q.circuits.StationaryDistribution.from_epsilon_ratio(0.0504, 1.0)
        for backend in ("quantum", "classical"):
            q.deliberation.deliberate(dist, backend, np.random.default_rng(0))

    def run_pass(self, q, inp) -> Pass:
        deliberate = q.deliberation.deliberate
        from_eps_ratio = q.circuits.StationaryDistribution.from_epsilon_ratio
        ops, records = [], []
        for eps, ratio, backend, seed in inp["groups"]:
            rng = np.random.default_rng(seed)
            # The group's first operation includes building its distribution.
            ops.append([])
            dist, err = timed(ops[-1], from_eps_ratio, eps, ratio)
            for i in range(self.calls_per_group):
                if i:
                    ops.append([])
                records.append((None, err) if err else timed(ops[-1], deliberate, dist, backend, rng))
        learn, campaigns = [], []
        t = clock()
        learn_code = run_cli(q, inp["learn_argv"])
        learn.append(clock() - t)
        cfg = q.harness.HarnessConfig(ideal=True, seed=inp["campaign_seed"])
        scaling = timed(campaigns, q.harness.scaling_experiment, cfg)
        ratio = timed(campaigns, q.harness.ratio_experiment, cfg)
        payload = {"records": records, "learn": learn_code, "scaling": scaling, "ratio": ratio}
        return Pass(ops, {"learn_demo_s": learn, "campaigns_s": campaigns}, payload)

    def check(self, inp, payload) -> tuple[int, list[str]]:
        failures = []
        calls = [(eps, ratio, backend) for eps, ratio, backend, _ in inp["groups"]
                 for _ in range(self.calls_per_group)]
        for (eps, ratio, backend), (rec, err) in zip(calls, payload["records"]):
            if err is not None:
                failures.append(f"deliberate({eps}, {ratio:.4f}, {backend}): {err}")
                continue
            k = expected_k(eps) if backend == "quantum" else 0
            if rec.k != k or rec.attempts < 1 or rec.up_calls != rec.attempts * (2 * k + 1):
                failures.append(f"deliberate({eps}, {backend}): cost {rec.up_calls} != {rec.attempts}*(2*{k}+1)")
            elif rec.action not in (0, 1):
                failures.append(f"deliberate({eps}, {backend}): unflagged action {rec.action}")
        failures.extend(self.check_learn(*payload["learn"]))
        scaling, err = payload["scaling"]
        if err is not None:
            failures.append(f"ideal scaling_experiment: {err}")
        else:
            worst = max(abs(r.eps_tilde - grover(r.epsilon, r.k)) for r in scaling.rows)
            if worst > 1e-12 or any(r.k != expected_k(r.epsilon) for r in scaling.rows):
                failures.append(f"ideal scaling_experiment: max |eps_tilde - oracle| = {worst:.3g}")
        ratio, err = payload["ratio"]
        if err is not None:
            failures.append(f"ideal ratio_experiment: {err}")
        elif any(abs(r.r_out - r.r_in) > 1e-9 * r.r_in for r in ratio.rows):
            failures.append("ideal ratio_experiment: r_out differs from r_in")
        return len(calls) + 3, failures

    def check_learn(self, code: int, output: str) -> list[str]:
        """Both backends of one seed visit the same actions, so they take the
        same number of interactions; every interaction costs at least one call."""
        if code != 0:
            return [f"learn-demo: exit code {code}: {output.strip()[-200:]}"]
        if not os.path.exists(self.learn_csv):
            return ["learn-demo: no CSV written"]
        with open(self.learn_csv) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        os.remove(self.learn_csv)
        runs: dict[str, dict[str, tuple[int, int]]] = {}
        for seed, backend, interactions, calls in rows:
            runs.setdefault(seed, {})[backend] = (int(interactions), int(calls))
        ok = len(runs) == self.episodes and all(
            set(r) == {"quantum", "classical"} and r["quantum"][0] == r["classical"][0]
            and all(1 <= n <= 100 and c >= n for n, c in r.values())
            for r in runs.values())
        return [] if ok else ["learn-demo: runs are unpaired or out of range"]


class DetuningScan:
    """One `noisy_distribution` plus `run_noisy` per configuration on fresh
    draws, `window_infidelity` for the three schemes at fresh detunings, and a
    noiseless control slice compared with `run_ideal`.

    Every call is timed between two speed probes: the calls last up to tens
    of milliseconds, and on a shared machine few of them run entirely at
    full speed, so their best times alone move with the load.
    """

    op_parts = ()
    parts = ("windows_s", "control_s")
    windows = 8

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def inputs(self):
        """Fresh draws in a fixed design.

        The cost of a configuration is set by its fidelity, its dd_sets and
        its diffusion count k, so these are fixed per slot and only the
        values are drawn: the 24 slots cover every (fidelity, dd_sets) pair
        once, and each slot's epsilon is log-uniform in the interval of
        epsilons whose optimal count is the slot's k.  The slots per k follow
        the log-width of that interval, so over the slots epsilon is close to
        log-uniform in the whole range, and the work of a pass does not
        depend on the seed.  Slots with more diffusion steps get fewer
        decoupling sets, which keeps a pass short: each configuration is then
        timed more often in a run, and its best time is steadier.
        """
        gen = np.random.default_rng([self.seed, 3])
        configs = [(eps_with_k(gen, k), float(gen.uniform(*RATIO_RANGE)), float(gen.uniform(*DETUNING_RANGE)),
                    ("gate", "pulse")[s % 2], DD_SETS[11 - s // 2], new_seed(gen))
                   for s, k in enumerate(SCAN_KS)]
        windows = [(float(d), ("gate", "pulse")[i % 2])
                   for i, d in enumerate(gen.uniform(*DETUNING_RANGE, self.windows))]
        # The controls have fixed k, fidelity and dd_sets, so that their work
        # is the same for every seed too.
        controls = [(eps_with_k(gen, k), float(gen.uniform(*RATIO_RANGE)), ("gate", "pulse")[i % 2], dd)
                    for i, (k, dd) in enumerate(((1, 10), (3, 7), (5, 4), (7, 1)))]
        return {"configs": configs, "windows": windows, "controls": controls}

    def warm_up(self, q):
        noise = q.noise.NoiseModel(**FULL_NOISE)
        settings = q.noise.PulseSettings(dd_sets=2)
        q.noise.noisy_distribution(0.2742, 1.0, noise, "pulse", settings=settings)

    def run_pass(self, q, inp) -> Pass:
        nz = q.noise
        ops, op_probes, results = [], [], []
        for eps, ratio, delta, fidelity, dd, seed in inp["configs"]:
            rng = np.random.default_rng(seed)
            times, probes = [], []
            ops.append(times)
            op_probes.append(probes)

            def distribution():
                # An operation includes building and validating its noise model and settings.
                noise = nz.NoiseModel(**{**FULL_NOISE, "detuning_ratio": delta})
                settings = nz.PulseSettings(dd_sets=dd)
                return noise, settings, nz.noisy_distribution(eps, ratio, noise, fidelity, settings=settings)

            built, err = probed(times, probes, distribution)
            if err:
                results.append(((None, err), (None, err)))
                continue
            noise, settings, dist = built
            results.append(((dist, None),
                            probed(times, probes, nz.run_noisy, eps, ratio, noise, fidelity, rng=rng,
                                   settings=settings)))
        window_times, window_probes, control_times, control_probes = [], [], [], []
        windows = [probed(window_times, window_probes, nz.window_infidelity, delta, scheme=scheme,
                          fidelity=fidelity)
                   for delta, fidelity in inp["windows"] for scheme in ("ur14", "cpmg", "none")]
        controls = []
        for eps, ratio, fidelity, dd in inp["controls"]:
            controls.append((probed(control_times, control_probes, lambda: nz.noisy_distribution(
                                 eps, ratio, nz.NOISELESS, fidelity, settings=nz.PulseSettings(dd_sets=dd))),
                             probed(control_times, control_probes, q.deliberation.run_ideal, eps, ratio)))
        payload = {"results": results, "windows": windows, "controls": controls}
        return Pass(ops, {"windows_s": window_times, "control_s": control_times}, payload,
                    op_probes, {"windows_s": window_probes, "control_s": control_probes})

    def check(self, inp, payload) -> tuple[int, list[str]]:
        failures = []
        for cfg, ((dist, err_d), (run, err_r)) in zip(inp["configs"], payload["results"]):
            eps = cfg[0]
            if err_d or err_r:
                failures.append(f"config {cfg[:5]}: {err_d or err_r}")
            elif not valid_distribution(dist):
                failures.append(f"config {cfg[:5]}: invalid distribution {dist}")
            elif sum(run.counts) != SHOTS or run.k != expected_k(eps):
                failures.append(f"config {cfg[:5]}: counts {run.counts}, k {run.k}")
        for (value, err) in payload["windows"]:
            if err is not None:
                failures.append(f"window_infidelity: {err}")
            elif not -1e-12 <= value <= 1.0 + 1e-12:
                failures.append(f"window_infidelity {value} outside [0, 1]")
        for ctl, ((dist, err_d), (ref, err_r)) in zip(inp["controls"], payload["controls"]):
            if err_d or err_r:
                failures.append(f"control {ctl}: {err_d or err_r}")
            elif not valid_distribution(dist) or np.max(np.abs(dist - ref)) > 1e-12:
                failures.append(f"control {ctl}: noiseless run deviates from run_ideal")
        attempted = len(inp["configs"]) + len(payload["windows"]) + len(inp["controls"])
        return attempted, failures


def valid_distribution(p) -> bool:
    p = np.asarray(p, dtype=float)
    return p.shape == (4,) and bool(np.all(np.isfinite(p))) and p.min() >= 0.0 and abs(p.sum() - 1.0) <= 1e-9


WORKLOADS = {
    "noisy_campaigns": NoisyCampaigns,
    "deliberation_mc": DeliberationMC,
    "detuning_scan": DetuningScan,
}


def coverage(q, workdir: str):
    """Call every traced function once on small fixed inputs.

    Runs inside the traced section of every workload, so each per-layer
    metric is measured on each workload instead of reading zero.
    """
    run_cli(q, ["scaling", "--ideal", "--out", os.path.join(workdir, "cov_scaling.csv")])
    run_cli(q, ["ratio", "--ideal", "--out", os.path.join(workdir, "cov_ratio.csv")])
    run_cli(q, ["learn-demo", "--runs", "1"])
    dist = q.circuits.StationaryDistribution.from_epsilon_ratio(0.0504, 1.0)
    for backend in ("quantum", "classical"):
        q.deliberation.deliberate(dist, backend, np.random.default_rng(0))
    settings = q.noise.PulseSettings(dd_sets=2)
    noise = q.noise.NoiseModel(**FULL_NOISE)
    q.noise.run_noisy(0.2742, 1.0, noise, "pulse", rng=np.random.default_rng(0), settings=settings)
    cfg = q.harness.HarnessConfig(
        epsilons=(0.2742,), detunings=(0.0, -0.04), noise=q.harness.BASELINE_DD_NOISE, pulses=settings
    )
    q.harness.dd_check(cfg)
    for fname in os.listdir(workdir):
        os.remove(os.path.join(workdir, fname))


def baseline_probe(q) -> dict[str, float]:
    """Untraced timings of the layer figures quoted as the ROADMAP baseline."""
    nz = q.noise
    noise = nz.NoiseModel(**FULL_NOISE)
    angles = q.circuits.StationaryDistribution.from_epsilon_ratio(0.011, 1.0).angles()
    step = nz.compile_diffusion_schedule(angles)
    if len(step.pulses) != 290:
        raise RuntimeError(f"the eps=0.011 diffusion step has {len(step.pulses)} pulses, not 290")
    out = {}
    out["noise.schedule_unitary.step290_ms"] = 1e3 * median_time(
        lambda: nz.schedule_unitary(step, noise, "pulse"), 5)
    out["noise.noisy_distribution.eps0011_s"] = median_time(
        lambda: nz.noisy_distribution(0.011, 1.0, noise, "pulse"), 3)
    dist = q.circuits.StationaryDistribution.from_epsilon_ratio(0.02, 1.0)
    for backend in ("quantum", "classical"):
        rng = np.random.default_rng(0)
        calls = 200
        t = clock()
        for _ in range(calls):
            q.deliberation.deliberate(dist, backend, rng)
        out[f"deliberation.deliberate.{backend}_ms"] = 1e3 * (clock() - t) / calls
    return out


def median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t = clock()
        fn()
        times.append(clock() - t)
    return float(np.median(times))
