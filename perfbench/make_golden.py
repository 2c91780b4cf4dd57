"""Regenerate perfbench/golden.json: SHA-256 digests of the noisy_campaigns CSVs.

Usage, from the repository root:

    python3 perfbench/make_golden.py

Runs the campaign commands of the noisy_campaigns workload for the default
seed 0 and stores the digest of every CSV they write.  Regenerate only when a
change is meant to alter these outputs, and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import run  # noqa: F401 - pins BLAS threads and puts the checkout's src on sys.path
import workloads


def main() -> int:
    q = run.fresh_import()
    with tempfile.TemporaryDirectory(prefix=".perfbench_tmp_", dir=run.ROOT) as outdir:
        for name, argv in workloads.campaign_commands(workloads.GOLDEN_SEED, outdir):
            code, output = workloads.run_cli(q, argv)
            if code != 0:
                print(f"{name}: exit code {code}: {output}", file=sys.stderr)
                return 1
        golden = {}
        for fname in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, fname), "rb") as fh:
                golden[fname] = hashlib.sha256(fh.read()).hexdigest()
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
