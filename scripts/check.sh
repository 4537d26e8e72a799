#!/usr/bin/env bash
# Full verification: lint, configure, build, run the test suite, the
# benchmark experiment suite, every example, and the CLI smoke runs.
set -euo pipefail
# nullglob: bench/examples may be disabled (e.g. sanitizer configs build
# with SKC_BUILD_BENCH=OFF); an unmatched glob must expand to nothing
# rather than pass through literally and fail the run.
shopt -s nullglob
cd "$(dirname "$0")/.."

./scripts/lint.sh

# Prefer Ninja when available, otherwise fall back to the default generator.
generator=()
if command -v ninja > /dev/null 2>&1; then
  generator=(-G Ninja)
fi
cmake -B build "${generator[@]}"
cmake --build build -j "$(nproc)"

ctest --test-dir build --output-on-failure

# Batch determinism gate, run by name so a test-glob change can't silently
# drop it: update_batch, the one ingest path, must reproduce the frozen
# digests of the bytes the deleted pointwise path wrote at every batch size,
# every guess must read the frozen answers, builder blobs must be
# canonical, the flat point store must match its pointwise node-map oracle,
# every rate class of the per-level point store must match the per-(level,
# phi) store it replaced (PointStoreOracle), the per-level CountMin (one
# column per keep bound) must match the per-guess CountMins it replaced,
# every loader must refuse malformed blobs (a run-coded CountMin block
# included) and STRM2/STRM3/STRM4/STRM5 ones (DESIGN.md §12), seeded
# mutants of every persisted format must be refused or round-trip without
# a large allocation (PersistedMutants),
# finalize over live builders must equal finalize of their fold
# (ShardFinalize), the sketch paths' heavy-cell walk must match
# mark_cells, its reference (HeavyWalk), the offline constructions must
# reproduce their frozen digests (OfflineDigest), and the distributed
# protocol must equal offline under exact rates and spend no sample round
# on a guess the walk FAILs (DistributedCoreset), both CRC-64 kernels must
# compute the bitwise reference's values that every checkpoint, spill and
# frozen digest depends on (Crc64), and the flat distinct-cell estimator
# must match the node-map one it replaced (DistinctCellsOracle).
ctest --test-dir build --output-on-failure -R '^(BatchIngest|BatchSketch|IngestDigest|CellPointStore|PointStoreOracle|CountMinOracle|Checkpoint|PersistedMutants|ShardFinalize|HeavyWalk|OfflineDigest|DistributedCoreset|Crc64|DistinctCellsOracle)\.'

for b in build/bench/bench_*; do
  echo "== $b"
  case "$(basename "$b")" in
    bench_net|bench_obs|bench_cluster|bench_tenant)
      # Loopback serving (E14), observability overhead (E15),
      # multi-process cluster (E16), and multi-tenant registry (E18)
      # smokes: same code paths as the full runs, CI-sized.
      "$b" smoke
      ;;
    *)
      "$b"
      ;;
  esac
done

# Bench regression gate: the benches above wrote BENCH_*.json into the repo
# root; fail on >20% ingest-throughput drops below the bench/baselines
# floors (the spill-bound tenant churn of bench_tenant smoke included) or
# engine query p50 rises above their ceilings.
if ls BENCH_*.json > /dev/null 2>&1; then
  ./scripts/bench_compare.py
fi

for e in build/examples/example_*; do
  echo "== $e"
  "$e" > /dev/null
done

# skc_cli end to end: CSV pipeline, serve, serve --tenants, coordinator
# failover and the fleet trace (the same script CI runs).
./scripts/cli_smoke.sh

echo "all checks passed"
