"""Run a workload on several seeds and report each metric's median and spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload NAME [--seeds 0-9]

Each run measures the end-to-end metrics (``--trace 0``) for BENCHMARK.json's
``run_seconds``.  The spread is the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median;
it is printed beside a third of the metric's bound, the steadiness target.
Runs go one after another, each in its own process, and each result line is
also printed as it arrives.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"seed": seed, **result}), flush=True)
        if not result["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':44s} {'median':>12s} {'spread':>8s} {'bound/3':>8s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        flag = "  TOO WIDE" if spread > bounds[name] / 3 else ""
        print(f"{name:44s} {med:12.6g} {spread:8.4f} {bounds[name] / 3:8.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
