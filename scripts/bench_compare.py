#!/usr/bin/env python3
"""Bench regression gate for throughput and query latency.

Compares freshly written BENCH_<name>.json reports (the JsonReport format
of bench/bench_util.h) against the checked-in baselines in bench/baselines/
<name>.json and exits non-zero when a watched metric regresses by more than
--tolerance (default 20%): a higher-is-better metric (throughput, speedup)
fails below baseline x (1 - tolerance), a lower-is-better one (query
latency) fails above baseline x (1 + tolerance).

Records are matched on their identity keys (series, mode, shards, ...);
records without a baseline counterpart are noted and never fail the run,
so adding a bench series does not require touching the baseline first.

Absolute events/s and milliseconds are hardware-dependent: the committed
baselines are conservative floors and ceilings (see each record's "note"),
and shared CI runners pass a looser --tolerance. When the hot path
intentionally changes speed, re-run the benches and refresh
bench/baselines/ by hand — the bound should trail the typical measurement
by enough to absorb run-to-run noise on a loaded box.
"""

import argparse
import glob
import json
import os
import sys

# Metrics guarded by the gate, with the direction in which they improve.
WATCHED = {
    "events_per_s": "higher",
    "batch_speedup": "higher",
    "query_p50_ms": "lower",
}
# Keys that identify a record within a bench report.
ID_KEYS = ("series", "mode", "shards", "simd", "lambda", "keys", "dim",
           "clients", "workers", "tenants", "trace")


def record_key(rec):
    return tuple((k, rec[k]) for k in ID_KEYS if k in rec)


def fmt_key(key):
    return " ".join(f"{k}={v}" for k, v in key)


def main():
    parser = argparse.ArgumentParser(
        description="fail when BENCH_*.json metrics regress vs baselines")
    parser.add_argument("current", nargs="*",
                        help="BENCH_*.json files (default: BENCH_*.json in cwd)")
    parser.add_argument("--baseline-dir",
                        default=os.path.join(os.path.dirname(
                            os.path.abspath(__file__)), "..", "bench",
                            "baselines"),
                        help="directory with checked-in <bench>.json baselines")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional regression vs baseline "
                             "(default 0.20)")
    args = parser.parse_args()

    files = args.current or sorted(glob.glob("BENCH_*.json"))
    if not files:
        print("bench_compare: no BENCH_*.json files found", file=sys.stderr)
        return 1

    regressions = []
    compared = 0
    for path in files:
        with open(path) as f:
            cur = json.load(f)
        base_path = os.path.join(args.baseline_dir, cur["bench"] + ".json")
        if not os.path.exists(base_path):
            print(f"note: no baseline for {path} ({base_path}); skipping")
            continue
        with open(base_path) as f:
            base = json.load(f)
        base_by_key = {record_key(r): r for r in base["records"]}
        for rec in cur["records"]:
            key = record_key(rec)
            brec = base_by_key.get(key)
            if brec is None:
                continue
            for metric, better in WATCHED.items():
                if metric not in rec or metric not in brec:
                    continue
                if better == "higher":
                    bound_name = "floor"
                    bound = brec[metric] * (1.0 - args.tolerance)
                    ok = rec[metric] >= bound
                else:
                    bound_name = "ceiling"
                    bound = brec[metric] * (1.0 + args.tolerance)
                    ok = rec[metric] <= bound
                compared += 1
                print(f"{'ok' if ok else 'REGRESSION':>10}  {cur['bench']}: "
                      f"{fmt_key(key)}  {metric}={rec[metric]:g} "
                      f"baseline={brec[metric]:g} {bound_name}={bound:g}")
                if not ok:
                    regressions.append((cur["bench"], key, metric))

    if compared == 0:
        print("bench_compare: nothing compared (no matching baselines?)",
              file=sys.stderr)
        return 1
    if regressions:
        print(f"bench_compare: {len(regressions)} regression(s) beyond "
              f"{args.tolerance:.0%} tolerance", file=sys.stderr)
        return 1
    print(f"bench_compare: {compared} metric(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
