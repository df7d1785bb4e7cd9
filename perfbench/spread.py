"""Run-to-run spread of the end-to-end metrics, as the bounds are judged.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload tpcc-tiered --runs 10

Runs ``perfbench/run.py`` once per seed (``--first-seed`` upwards), one
run at a time, and prints for every metric its median, its quartile
spread ``(Q3 - Q1) / median`` and that spread as a share of the metric's
bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
        )
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(completed.stdout)
            raise SystemExit(f"seed {seed}: output check failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.6g}"
            for name, metric in result["metrics"].items()), flush=True)
    print(f"{'metric':<28} {'median':>12} {'spread':>8} {'of bound':>9}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _q2, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        share = f"{spread / bound:9.2f}" if bound else f"{'-':>9}"
        print(f"{name:<28} {median:>12.6g} {spread:>8.3f} {share}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
