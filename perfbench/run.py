"""Run one workload of the qrps benchmark and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec    # rewrite BENCHMARK.json from the tables below

The benchmark imports qrps from this checkout's src/ in one single-threaded
process.  A run sets up ten times, then repeats passes of its workload until
``--seconds`` have passed; each pass starts with its own set-up (a fresh
import of qrps, the inputs and one untimed warm-up operation) and repeats the
same calls, so each call can be timed many times.  A call's estimate is its
best time over the passes or, on a workload whose calls are long enough to
be probed (detuning_scan), the median of its times scaled to the machine's
fast speed by a speed probe timed around each call.  With
``--trace 0`` the last line of standard output holds the end-to-end metrics.
With ``--trace 1`` the run measures untraced passes for half the time, then
traces one more pass and the coverage slice, and times the baseline probe
untraced; the last line holds the per-layer metrics.  The line before it
holds the run manifest and the report.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported anywhere in this process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter as clock  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

RUN_SECONDS = 60
INITIAL_SETUPS = 10

# The workloads BENCHMARK.json lists.  noisy_campaigns stays runnable for its
# golden-CSV check, but its operations are whole commands of 1-6 s, and on a
# shared machine whose speed swings by up to 1.7x for seconds at a time no
# number of repeats made their best times steady.
WORKLOAD_WHY = {
    "deliberation_mc": "never touches noise: exercises qsim, circuits, the deliberate sampler, learn-demo and "
                       "the ideal campaigns, where a noise-path change must show no change",
    "detuning_scan": "the noise path on fresh draws, 1-12 decoupling sets, both fidelities; no operator key "
                     "repeats across configurations, 30% of schedule_unitary calls repeat one within a call",
}

# (name, unit, better, bound).  An op is a deliberate call on
# deliberation_mc and one noisy configuration on detuning_scan.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# The ROADMAP baseline figures, timed untraced by workloads.baseline_probe.
PROBE = (
    ("noise.schedule_unitary.step290_ms", "ms", "lower"),
    ("noise.noisy_distribution.eps0011_s", "s", "lower"),
    ("deliberation.deliberate.quantum_ms", "ms", "lower"),
    ("deliberation.deliberate.classical_ms", "ms", "lower"),
)
PER_LAYER = spans.METRICS + (("trace.overhead_s", "s", "lower"),) + PROBE

# Each workload's own name for its op statistics in the report: (operation, unit, scale).
OP_NAMES = {
    "noisy_campaigns": ("command", "s", 1.0),
    "deliberation_mc": ("deliberate", "us", 1e6),
    "detuning_scan": ("config", "ms", 1e3),
}


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x} for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def fresh_import() -> SimpleNamespace:
    """Import qrps from this checkout's src/, discarding any earlier import."""
    for name in [m for m in sys.modules if m == "qrps" or m.startswith("qrps.")]:
        del sys.modules[name]
    pkg = importlib.import_module("qrps")
    if Path(pkg.__file__).resolve().parent != SRC / "qrps":
        raise ImportError(f"qrps imported from {pkg.__file__}, not from {SRC}")
    mods = {m: importlib.import_module(f"qrps.{m}")
            for m in ("qsim", "circuits", "deliberation", "noise", "harness", "cli")}
    return SimpleNamespace(pkg=pkg, **mods)


def tail(samples: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with ten samples beyond it, and that percentile.

    With ten samples or fewer no percentile qualifies; the maximum is returned.
    """
    s = sorted(samples)
    n = len(s)
    if n > 10:
        return s[n - 11], 100.0 * (n - 10) / n
    return s[-1], 100.0


def calls_median(passes: list[tuple[np.ndarray, np.ndarray]], fast: float) -> np.ndarray:
    """Per call, the median over the passes of its time scaled to the fast probe reading.

    ``passes`` holds each pass's (call times, probe readings); a pass whose
    calls differ in number from the first pass's (a call failed) is left out.
    """
    shape = passes[0][0].shape
    scaled = [t * fast / r for t, r in passes if t.shape == shape]
    return np.median(np.array(scaled), axis=0)


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(name: str, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qrps").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
    }


def run(args) -> tuple[dict, dict, int, list[str]]:
    """Run one workload; returns (metrics, report, attempted, failures)."""
    name = args.workload
    with tempfile.TemporaryDirectory(prefix=".perfbench_tmp_", dir=ROOT) as workdir:
        wl = workloads.WORKLOADS[name](args.seed, workdir)
        setups, walls, failures = [], [], []
        best_ops, best_parts = None, {}
        probed_ops: list = []
        probed_parts: dict[str, list] = {}
        attempted = 0

        def setup():
            nonlocal attempted
            gc.collect()  # frees the previous import's modules, so memory stays flat over passes
            t = clock()
            q = fresh_import()
            inputs = wl.inputs()
            _, err = workloads.guarded(wl.warm_up, q)
            setups.append(clock() - t)
            if err is not None:
                attempted += 1
                failures.append(f"warm-up: {err}")
            return q, inputs

        def one_pass(tracer: spans.Tracer | None = None):
            nonlocal attempted
            q, inputs = setup()
            if tracer is not None:
                tracer.install(q)
            t = clock()
            result = wl.run_pass(q, inputs)
            wall = clock() - t
            n, failed = wl.check(inputs, result.payload)
            attempted += n
            failures.extend(failed)
            return q, wall, result

        def record(wall: float, result: workloads.Pass):
            # An operation may make several calls; each call is estimated on its own.
            # Unprobed workloads keep only running minima, so memory stays flat
            # however many passes run; probed ones keep every pass's times.
            nonlocal best_ops
            ops = [np.array(times) for times in result.ops]
            if result.op_probes is None:
                best_ops = ops if best_ops is None else [
                    np.minimum(b, o) if b.shape == o.shape else b for b, o in zip(best_ops, ops)]
                for p in wl.parts:
                    times = np.array(result.parts[p])
                    best_parts[p] = np.minimum(best_parts[p], times) if p in best_parts else times
            else:
                probed_ops.append((ops, [np.array(r) for r in result.op_probes]))
                for p in wl.parts:
                    probed_parts.setdefault(p, []).append(
                        (np.array(result.parts[p]), np.array(result.part_probes[p])))
            walls.append(wall)

        for _ in range(INITIAL_SETUPS):
            setup()
        budget = args.seconds / 2 if args.trace else args.seconds
        start = clock()
        last = 0.0
        # Passes repeat while the next one, judged by the last, still ends within the budget.
        while not walls or clock() - start + last < budget:
            t = clock()
            _, wall, result = one_pass()
            record(wall, result)
            last = clock() - t

        probe_report = {}
        if probed_ops:
            # Calls that last tens of milliseconds seldom run entirely while the
            # shared machine is at full speed, so their best time over the passes
            # still moves with the load.  Instead each call's time in a pass is
            # scaled by the run's fast speed-probe reading (the 1st percentile of
            # all readings) over the reading around the call, and the call's
            # estimate is the median of these over the passes.
            readings = np.concatenate([r for _, probes in probed_ops for r in probes]
                                      + [r for v in probed_parts.values() for _, r in v])
            fast = float(np.quantile(readings, 0.01))
            best_ops = [calls_median([(t[i], r[i]) for t, r in probed_ops], fast)
                        for i in range(len(probed_ops[0][0]))]
            best_parts = {p: calls_median(v, fast) for p, v in probed_parts.items()}
            probe_report = {"probe_fast_us": 1e6 * fast,
                            "probe_slowdown_median": float(np.median(readings)) / fast}

        # Otherwise, as every pass repeats the same calls, each call's best
        # time over the passes is its time when the machine ran fastest.  An
        # operation's latency is the sum of its calls' estimates.  Set-ups
        # are taken at their best time.
        best = [float(times.sum()) for times in best_ops]
        parts = {p: float(times.sum()) for p, times in best_parts.items()}
        op_tail, percentile = tail(best)
        op, op_unit, scale = OP_NAMES[name]
        metrics = {
            "setup_s": min(setups),
            "wall_s": sum(best) + sum(v for p, v in parts.items() if p not in wl.op_parts),
            "op_p50_ms": 1e3 * statistics.median(best),
            "op_tail_ms": 1e3 * op_tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report = {
            "passes": len(walls),
            "setups": len(setups),
            "ops_per_pass": len(best),
            "op": op,
            "tail_percentile": percentile,
            f"{op}_p50_{op_unit}": scale * statistics.median(best),
            f"{op}_tail_{op_unit}": scale * op_tail,
            "pass_wall_s_min": min(walls),
            "pass_wall_s_median": statistics.median(walls),
            "setup_s_median": statistics.median(setups),
            **probe_report,
            **parts,
            **{f"{p}_share": v / metrics["wall_s"] for p, v in parts.items()},
        }

        if args.trace:
            tracer = spans.Tracer()
            q, wall, _ = one_pass(tracer)
            attempted += 1
            _, err = workloads.guarded(workloads.coverage, q, workdir)
            if err is not None:
                failures.append(f"coverage slice: {err}")
            metrics = tracer.metrics()
            metrics["trace.overhead_s"] = wall - min(walls)
            attempted += 1
            probe, err = workloads.guarded(workloads.baseline_probe, fresh_import())
            if err is not None:
                failures.append(f"baseline probe: {err}")
                probe = {n: 0.0 for n, _, _ in PROBE}
            metrics.update(probe)
        return metrics, report, attempted, failures


def main() -> int:
    parser = argparse.ArgumentParser(description="qrps benchmark")
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args()
    if args.write_spec:
        with open(ROOT / "BENCHMARK.json", "w") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        fresh_import()
    except ImportError as exc:
        print(f"cannot import qrps from {SRC}: {exc}", file=sys.stderr)
        return 2

    metrics, report, attempted, failures = run(args)
    units = {n: u for n, u, *_ in (END_TO_END if not args.trace else PER_LAYER)}
    print(f"{args.workload} seed {args.seed}: {report['passes']} passes of {report['ops_per_pass']} "
          f"{report['op']} operations; tail = p{report['tail_percentile']:.1f} of the best times")
    for key, value in metrics.items():
        print(f"  {key:44s} {value:14.6g} {units[key]}")
    for key, value in report.items():
        if key.endswith(("_s", "_ms", "_us", "_share")):
            print(f"  {key:44s} {value:14.6g} {key.rsplit('_', 1)[1]}")
    print(f"  {'fail_ratio':44s} {len(failures) / attempted:14.6g} ({len(failures)} of {attempted})")
    for msg in failures[:20]:
        print(f"  FAILED: {msg}")
    report["fail_ratio"] = len(failures) / attempted
    print(json.dumps({"manifest": manifest(args.workload, args), "report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
