#!/usr/bin/env bash
# End-to-end smoke runs of skc_cli, shared by scripts/check.sh and CI:
#   * the CSV pipeline (generate / coreset / assign);
#   * `serve`: the command loop over a loopback engine answers a query over
#     two points;
#   * `serve --tenants`: two isolated namespaces, and a Prometheus scrape
#     that carries the tenant families and no engine-level ones;
#   * README's two `client` drives, against `serve --tcp 0` and
#     `serve --tenants --tcp 0`: both answer their query, and each server
#     exits 0 on SHUTDOWN;
#   * `serve 21 4`: a dimension above the finalize walk's limit of 20 is a
#     usage error (exit 2) that names the limit;
#   * a coordinator with two worker processes over loopback: ingest, query,
#     SIGKILL one worker, query again (checkpoint + failover end to end);
#   * one traced query against a coordinator and two traced workers, fetched
#     with `skc_cli cluster-trace`: the merged timeline must hold one
#     process lane per node and the query's trace id in all three lanes.
#
# Usage: scripts/cli_smoke.sh   (after building into build/)
set -euo pipefail
cd "$(dirname "$0")/.."
cli=build/tools/skc_cli

tmp=$(mktemp -d)
pids=()
cleanup() {
  if ((${#pids[@]})); then
    kill "${pids[@]}" 2> /dev/null || true
    wait "${pids[@]}" 2> /dev/null || true
  fi
  rm -rf "$tmp"
}
trap cleanup EXIT

fail() {
  echo "cli_smoke: $*" >&2
  exit 1
}

# Prints the port a worker announced on its first line, waiting up to 10 s.
worker_port() {
  for _ in $(seq 1 50); do
    grep -q '^PORT ' "$1" && break
    sleep 0.2
  done
  awk '/^PORT /{print $2}' "$1"
}

# Prints the port a server announced in its "listening on" line on stderr,
# waiting up to 10 s.
listen_port() {
  for _ in $(seq 1 50); do
    grep -q 'listening on 127.0.0.1:' "$1" && break
    sleep 0.2
  done
  sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$1"
}

echo "== CSV pipeline"
"$cli" generate 2000 4 2 10 1.2 > "$tmp/pts.csv"
"$cli" coreset "$tmp/pts.csv" 4 "$tmp/coreset.csv"
"$cli" assign "$tmp/pts.csv" 4 1.1 > "$tmp/assign.txt"

echo "== serve"
printf 'insert 5 5\ninsert 900 900\nflush\nquery\nquit\n' \
  | "$cli" serve 2 2 2 10 > "$tmp/serve.txt"
grep -q '^ok n=2' "$tmp/serve.txt" || fail "serve: no 'ok n=2' answer"

echo "== serve --tenants"
printf 'tenant a\ninsert 5 5\ninsert 900 900\ntenant b\ninsert 7 7\ntenant a\nflush\nquery\ntenants\nprom\nquit\n' \
  | "$cli" serve 2 2 2 10 --tenants > "$tmp/tenants.txt"
grep -q '^ok n=2' "$tmp/tenants.txt" || fail "tenants: no 'ok n=2' answer"
grep -q '"tenants":2' "$tmp/tenants.txt" || fail "tenants: expected 2 namespaces"
grep -q '^skc_tenant_events_total{tenant="a"} 2$' "$tmp/tenants.txt" \
  || fail "tenants: scrape lacks tenant a's event count"
if grep -q '^skc_events_submitted_total' "$tmp/tenants.txt"; then
  fail "tenants: scrape carries engine-level families"
fi

echo "== README drives: client against serve --tcp and serve --tenants --tcp"
"$cli" serve 2 4 4 12 --tcp 0 > /dev/null 2> "$tmp/tcp.err" &
srv=$!
pids+=("$srv")
port=$(listen_port "$tmp/tcp.err")
printf 'insert 5 5\ninsert 900 900\ninsert 5 900\ninsert 900 5\nquery\nmetrics\nshutdown\n' \
  | "$cli" client 127.0.0.1 "$port" > "$tmp/tcp.txt"
grep -q '^ok n=4' "$tmp/tcp.txt" || fail "README TCP drive: no 'ok n=4' answer"
wait "$srv" || fail "serve --tcp did not exit 0 on SHUTDOWN"
"$cli" serve 2 4 2 12 --tenants --tcp 0 > /dev/null 2> "$tmp/ttcp.err" &
srv=$!
pids=("$srv")
port=$(listen_port "$tmp/ttcp.err")
printf 'insert 5 5\ninsert 900 900\ninsert 5 900\ninsert 900 5\nflush\nquery\ntenant-stats\nquit\n' \
  | "$cli" client 127.0.0.1 "$port" --tenant alice > "$tmp/ttcp.txt"
printf 'tenant-stats\nquit\n' | "$cli" client 127.0.0.1 "$port" >> "$tmp/ttcp.txt"
grep -q '^ok n=4' "$tmp/ttcp.txt" || fail "README tenant drive: no 'ok n=4' answer"
grep -q '"tenants":1' "$tmp/ttcp.txt" || fail "README tenant drive: no registry stats"
printf 'shutdown\n' | "$cli" client 127.0.0.1 "$port" > /dev/null
wait "$srv" || fail "serve --tenants --tcp did not exit 0 on SHUTDOWN"
pids=()

echo "== serve 21 4 is refused"
rc=0
"$cli" serve 21 4 < /dev/null > /dev/null 2> "$tmp/dim.err" || rc=$?
[[ $rc -eq 2 ]] || fail "serve 21 4: expected exit 2, got $rc"
grep -q 'exceeds 20' "$tmp/dim.err" || fail "serve 21 4: the usage error does not name the limit"

echo "== coordinator + 2 workers, failover"
"$cli" worker 2 2 2 6 > "$tmp/w1.log" 2> /dev/null &
w1=$!
pids+=("$w1")
"$cli" worker 2 2 2 6 > "$tmp/w2.log" 2> /dev/null &
w2=$!
pids+=("$w2")
p1=$(worker_port "$tmp/w1.log")
p2=$(worker_port "$tmp/w2.log")
{
  printf 'insert 5 5\ninsert 60 60\nflush\nquery\n'
  sleep 1
  kill -9 "$w2"
  sleep 1
  printf 'query\nquit\n'
} | "$cli" coordinator 2 2 6 \
      --worker "127.0.0.1:$p1" --worker "127.0.0.1:$p2" \
      > "$tmp/cluster.txt" 2> "$tmp/cluster.err"
[[ "$(grep -c '^ok n=2' "$tmp/cluster.txt")" -eq 2 ]] \
  || fail "cluster: expected two 'ok n=2' answers, before and after the kill"
kill "$w1" 2> /dev/null || true
wait "$w1" "$w2" 2> /dev/null || true
pids=()

echo "== fleet trace"
"$cli" worker 2 2 2 6 --trace > "$tmp/tw1.log" 2> /dev/null &
pids+=($!)
"$cli" worker 2 2 2 6 --trace > "$tmp/tw2.log" 2> /dev/null &
pids+=($!)
tp1=$(worker_port "$tmp/tw1.log")
tp2=$(worker_port "$tmp/tw2.log")
cport=$(python3 -c 'import socket; s = socket.socket(); s.bind(("127.0.0.1", 0)); print(s.getsockname()[1]); s.close()')
mkfifo "$tmp/coord.in"
"$cli" coordinator 2 2 6 --trace --tcp "$cport" \
      --worker "127.0.0.1:$tp1" --worker "127.0.0.1:$tp2" \
      < "$tmp/coord.in" > "$tmp/tcluster.txt" 2> "$tmp/tcluster.err" &
co=$!
pids+=("$co")
exec 9> "$tmp/coord.in"  # hold the REPL's stdin open across the fetch
printf 'insert 5 5\ninsert 60 60\nflush\nquery\n' >&9
for _ in $(seq 1 50); do
  grep -q '^ok n=2' "$tmp/tcluster.txt" && break
  sleep 0.2
done
grep -q '^ok n=2' "$tmp/tcluster.txt" || fail "fleet trace: no 'ok n=2' answer"
"$cli" cluster-trace 127.0.0.1 "$cport" "$tmp/fleet.json"
printf 'quit\n' >&9
exec 9>&-
wait "$co"
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

echo "cli smoke passed"
