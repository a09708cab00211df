"""Record the expected outputs that the benchmark checks every run against.

    python3 bench/record.py

Runs each workload's items once and rewrites ``bench/expected.json``:
for every IMEX scenario the outcome label, accepted and rejected step
counts, and SHA-256 digests of ``diagnostics.csv`` and every snapshot;
for every R0 problem its R0. Flat R0 problems are checked against their
closed form instead; oracle points are checked by their own ``agree``.
Record only from a commit whose artifacts are known to be right.
"""

from __future__ import annotations

import json
import os
import sys

from worker import EXPECTED_PATH, OUT_DIR, ROOT, build_items

WORKLOADS = ("imex-1d", "imex-2d", "spectral", "oracle")


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    expected = {}
    for workload in WORKLOADS:
        expected[workload] = {}
        if workload == "oracle":
            continue
        for item in build_items(workload, seed=0):
            out_dir = OUT_DIR / "record" / workload / item.name
            out_dir.mkdir(parents=True, exist_ok=True)
            observed = item.run(out_dir)["observed"]
            if workload == "spectral":
                observed = {"r0": observed["r0"]}
            expected[workload][item.name] = observed
            print(workload, item.name, observed, flush=True)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
