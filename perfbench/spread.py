"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --seeds 10                 # every workload
    python3 perfbench/spread.py --seeds 5 --workloads redistrict

Runs the benchmark command from BENCHMARK.json once per workload and
seed (seeds 1..N, or from ``--first-seed``), one run at a time, and
reports per metric the median of the runs and the distance between their
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median.  A metric is steady when that share is below a
third of its bound; ``setup_s`` is exempt from the spread rule.  The
workload's own figures (ENCE, p99, swap time, ...) are reported beside
them, from the run records, with no bound.

Exits 1 if a run fails or a spread is not below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if not median:
        return median, 0.0 if q3 == q1 else float("inf")
    return median, (q3 - q1) / median


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    summary = {}
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        details = {}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            began = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
            walls.append(time.perf_counter() - began)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            record = json.loads((OUT / f"{workload}-seed{seed}-trace0.json").read_text())
            for name, (value, unit) in record["details"].items():
                details.setdefault((name, unit), []).append(value)
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s  "
                  + "  ".join(f"{name}={values[name][-1]:.5g}" for name in bounds), flush=True)
        print(f"\n{workload}: {len(walls)} runs, median wall {statistics.median(walls):.1f} s")
        print(f"  {'metric':<28} {'median':>12} {'spread':>8} {'bound/3':>8}")
        summary[workload] = {}
        for name, bound in bounds.items():
            median, share = spread(values[name])
            ok = name == "setup_s" or share < bound / 3
            steady &= ok
            summary[workload][name] = {"median": median, "spread": share, "values": values[name]}
            print(f"  {name:<28} {median:>12.5g} {share:>8.2%} {bound / 3:>8.2%} {'' if ok else 'NOT STEADY'}")
        for (name, unit), series in details.items():
            median, share = spread(series) if len(series) > 1 else (series[0], 0.0)
            print(f"  {workload}.{name:<{27 - len(workload)}} {median:>12.5g} {share:>8.2%} {'':>8} {unit}")
        print()
    OUT.mkdir(exist_ok=True)
    (OUT / f"spread-{int(time.time())}.json").write_text(json.dumps(summary, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
