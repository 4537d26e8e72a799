#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <ingest|query_under_ingest|tenant_churn>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds the
library, `skc_cli` and the `perfbench` binary (Release) under
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild incrementally.
The last stdout line is the result JSON; the exit code is 0 only
when the run's correctness gates held.  --self-test builds and runs the
benchmark's own unit tests instead.
"""
import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def stop_group(proc):
    """SIGKILLs whatever is left of the benchmark process group and waits."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def build(root, build_dir, targets):
    cmake_dir = build_dir / "cmake"
    log_path = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j", str(os.cpu_count() or 1),
                  "--target", *targets])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed ({' '.join(cmd)}); full log in {log_path}")
    return cmake_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["ingest", "query_under_ingest", "tenant_churn"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    root = Path(__file__).resolve().parent.parent
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not (root / needed).is_file():
            fail(f"{root / needed} is missing: run from a full repository checkout")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir

    if args.self_test:
        cmake_dir = build(root, build_dir, ["perfbench_test"])
        sys.exit(subprocess.run([str(cmake_dir / "perfbench_test")]).returncode)

    cmake_dir = build(root, build_dir, ["perfbench", "skc_cli"])
    out_dir = build_dir / "out" / args.workload
    cmd = [str(cmake_dir / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", str(cmake_dir / "tools" / "skc_cli"), "--out", str(out_dir)]
    sys.stdout.flush()
    # perfbench and the servers it spawns share a fresh process group, so
    # nothing outlives the run, even when perfbench crashes or times out.
    with subprocess.Popen(cmd, start_new_session=True) as proc:
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        stop_group(proc)
    if code is None:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
