#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--seeds 10] [--trace 0] [workload ...]

For every workload and metric it prints the median over the seeds, the
quartiles (statistics.quantiles(values, n=4)) and the interquartile range as
a share of the median, next to the metric's bound in BENCHMARK.json.  A
benchmark is steady when every spread except setup_s stays well within its
bound.  Also prints each run's wall time.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    worst = 0.0
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.monotonic() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            brief = " ".join(f"{k}={m['value']:.4g}"
                             for k, m in result.get("metrics", {}).items())
            print(f"{workload} seed {seed}: exit {proc.returncode}, "
                  f"correct {result.get('correct')}, {wall:.1f} s  {brief}", flush=True)
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            for name, m in result.get("metrics", {}).items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            if bound and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:24s} median {med:14.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  bound {bound}")
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
