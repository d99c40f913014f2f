"""Check that traced runs repeat their work counts exactly.

Usage, from the root of a checkout:

    python3 perfbench/check_repeat.py [--seed N] [workload ...]

Runs ``run.py --trace 1`` twice per workload (all three by default) with the
same seed and compares every metric whose unit is ``count``: work counts
(convolution pairs, q-query tuples, Birkhoff terms, compared entries) and
call counts.  Exits 1 if any differs or a run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = parser.parse_args()
    status = 0
    for workload in args.workloads:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        differ = sorted(k for k in first if first[k] != second.get(k))
        print(f"{workload}: {len(first)} counts, "
              + ("identical" if not differ else f"DIFFER: {differ}"))
        if differ:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
