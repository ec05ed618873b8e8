"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload strings-rw --seeds 1 2 3 4 5

Runs ``run.py --trace 0`` once per seed, sequentially, for ``run_seconds``
from BENCHMARK.json, and prints per metric the median, the spread (the
interquartile range as a share of the median, which a metric's ``bound``
limits), the bound and every value.  A run with a failed operation still
counts towards the spread; the script names it and exits 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    failed = 0
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        failed += not result["correct"]
        verdict = "ok" if result["correct"] else f"{result['failed']} failed operations"
        print(f"seed {seed}: {verdict}", flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:26s} median {med:12.4f} spread {(q3 - q1) / med:7.3f} "
              f"bound {bounds[name]} values {[round(v, 3) for v in vals]}")
    print(f"{failed} of {len(args.seeds)} runs had a failed operation")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
