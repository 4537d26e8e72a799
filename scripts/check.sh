#!/usr/bin/env bash
# Full verification: lint, configure, build, run the test suite, the
# benchmark experiment suite, every example, and a CLI smoke test.
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
# builder blobs must be canonical, the flat point store must match its
# pointwise node-map oracle, the per-level CountMin must match the per-guess
# CountMins it replaced, every loader must refuse malformed blobs
# (DESIGN.md §12), and seeded mutants of every persisted format must be
# refused or round-trip without a large allocation (PersistedMutants).
ctest --test-dir build --output-on-failure -R '^(BatchIngest|BatchSketch|IngestDigest|CellPointStore|CountMinOracle|Checkpoint|PersistedMutants)\.'

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
# floors or engine query p50 rises above their ceilings.
if ls BENCH_*.json > /dev/null 2>&1; then
  ./scripts/bench_compare.py
fi

for e in build/examples/example_*; do
  echo "== $e"
  "$e" > /dev/null
done

if [[ -x build/tools/skc_cli ]]; then
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  ./build/tools/skc_cli generate 2000 4 2 10 1.2 > "$tmp/pts.csv"
  ./build/tools/skc_cli coreset "$tmp/pts.csv" 4 "$tmp/coreset.csv"
  ./build/tools/skc_cli assign "$tmp/pts.csv" 4 1.1 > "$tmp/assign.txt"
  printf 'insert 5 5\ninsert 900 900\nflush\nquery\nquit\n' \
    | ./build/tools/skc_cli serve 2 2 2 10 > "$tmp/serve.txt"
  grep -q '^ok n=2' "$tmp/serve.txt"

  # Multi-tenant smoke: two namespaces in one registry, isolated counts.
  printf 'tenant a\ninsert 5 5\ninsert 900 900\ntenant b\ninsert 7 7\ntenant a\nflush\nquery\ntenants\nquit\n' \
    | ./build/tools/skc_cli serve 2 2 2 10 --tenants > "$tmp/tenants.txt"
  grep -q '^ok n=2' "$tmp/tenants.txt"
  grep -q '"tenants":2' "$tmp/tenants.txt"

  # Multi-process cluster smoke: coordinator + 2 worker processes over
  # loopback; ingest, query, SIGKILL one worker, query again (the second
  # answer exercises the checkpoint + failover path end to end).
  ./build/tools/skc_cli worker 2 2 2 6 > "$tmp/w1.log" 2> /dev/null &
  w1=$!
  ./build/tools/skc_cli worker 2 2 2 6 > "$tmp/w2.log" 2> /dev/null &
  w2=$!
  for _ in $(seq 1 50); do
    grep -q '^PORT ' "$tmp/w1.log" && grep -q '^PORT ' "$tmp/w2.log" && break
    sleep 0.2
  done
  p1=$(awk '/^PORT /{print $2}' "$tmp/w1.log")
  p2=$(awk '/^PORT /{print $2}' "$tmp/w2.log")
  {
    printf 'insert 5 5\ninsert 60 60\nflush\nquery\n'
    sleep 1
    kill -9 "$w2"
    sleep 1
    printf 'query\nquit\n'
  } | ./build/tools/skc_cli coordinator 2 2 6 \
        --worker "127.0.0.1:$p1" --worker "127.0.0.1:$p2" \
        > "$tmp/cluster.txt" 2> "$tmp/cluster.err"
  [[ "$(grep -c '^ok n=2' "$tmp/cluster.txt")" -eq 2 ]]
  kill "$w1" 2> /dev/null || true
  wait "$w1" 2> /dev/null || true
  wait "$w2" 2> /dev/null || true

  # Cluster observability smoke: coordinator + 2 traced workers, one traced
  # query, then `skc_cli cluster-trace` over TCP.  The merged timeline must
  # hold one process lane per node (pids 0/1/2) and the query's trace id
  # must appear in all three lanes — cross-process propagation end to end.
  ./build/tools/skc_cli worker 2 2 2 6 --trace > "$tmp/tw1.log" 2> /dev/null &
  tw1=$!
  ./build/tools/skc_cli worker 2 2 2 6 --trace > "$tmp/tw2.log" 2> /dev/null &
  tw2=$!
  for _ in $(seq 1 50); do
    grep -q '^PORT ' "$tmp/tw1.log" && grep -q '^PORT ' "$tmp/tw2.log" && break
    sleep 0.2
  done
  tp1=$(awk '/^PORT /{print $2}' "$tmp/tw1.log")
  tp2=$(awk '/^PORT /{print $2}' "$tmp/tw2.log")
  cport=$(python3 -c 'import socket; s = socket.socket(); s.bind(("127.0.0.1", 0)); print(s.getsockname()[1]); s.close()')
  mkfifo "$tmp/coord.in"
  ./build/tools/skc_cli coordinator 2 2 6 --trace --tcp "$cport" \
        --worker "127.0.0.1:$tp1" --worker "127.0.0.1:$tp2" \
        < "$tmp/coord.in" > "$tmp/tcluster.txt" 2> "$tmp/tcluster.err" &
  co=$!
  exec 9> "$tmp/coord.in"  # hold the REPL's stdin open across the fetch
  printf 'insert 5 5\ninsert 60 60\nflush\nquery\n' >&9
  for _ in $(seq 1 50); do
    grep -q '^ok n=2' "$tmp/tcluster.txt" && break
    sleep 0.2
  done
  grep -q '^ok n=2' "$tmp/tcluster.txt"
  ./build/tools/skc_cli cluster-trace 127.0.0.1 "$cport" "$tmp/fleet.json"
  printf 'quit\n' >&9
  exec 9>&-
  wait "$co"
  kill "$tw1" "$tw2" 2> /dev/null || true
  wait "$tw1" "$tw2" 2> /dev/null || true
  python3 - "$tmp/fleet.json" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
lanes = {e["pid"] for e in events if e.get("name") == "process_name"}
assert lanes == {0, 1, 2}, f"expected 3 process lanes, got {lanes}"
queries = [e for e in events
           if e.get("name") == "cluster_query" and "args" in e]
assert queries, "no cluster_query span in the merged timeline"
trace_id = queries[0]["args"]["trace_id"]
pids = {e["pid"] for e in events
        if e.get("args", {}).get("trace_id") == trace_id}
assert pids == {0, 1, 2}, f"trace {trace_id} only spans pids {pids}"
EOF
fi
echo "all checks passed"
