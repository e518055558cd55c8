#!/usr/bin/env bash
# Telemetry-plane smoke test: boot a real three-node loopback cluster
# with debug endpoints, push traffic through it, then assert that
#   1. every node's /metrics serves per-stage queue-delay windows and
#      raft role gauges in Prometheus text format, and
#   2. hovertop -once -json aggregates the fleet into one cluster view
#      with a leader, all nodes up, and non-empty stage telemetry.
# CI runs this against the binaries at HEAD; it needs only loopback.
set -euo pipefail

cd "$(dirname "$0")/.."

BASE_PORT=${BASE_PORT:-7451}
DEBUG_PORT=${DEBUG_PORT:-9451}
WORK=$(mktemp -d)
declare -a PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build"
go build -o "$WORK" ./cmd/hovernode ./cmd/hoverkv ./cmd/hovertop

PEERS="1=127.0.0.1:$BASE_PORT,2=127.0.0.1:$((BASE_PORT+1)),3=127.0.0.1:$((BASE_PORT+2))"
DATA_ADDRS="127.0.0.1:$BASE_PORT,127.0.0.1:$((BASE_PORT+1)),127.0.0.1:$((BASE_PORT+2))"
DEBUG_ADDRS=()
echo "== start 3 hovernodes ($PEERS)"
for id in 1 2 3; do
    dbg="127.0.0.1:$((DEBUG_PORT+id-1))"
    DEBUG_ADDRS+=("$dbg")
    args=(-id "$id" -peers "$PEERS" -debug-addr "$dbg" -wal "$WORK/wal$id" -fsync-batch 32 -fsync-delay 100us)
    [ "$id" = 1 ] && args+=(-bootstrap)
    "$WORK/hovernode" "${args[@]}" >"$WORK/node$id.log" 2>&1 &
    PIDS+=($!)
done

echo "== wait for debug endpoints"
for dbg in "${DEBUG_ADDRS[@]}"; do
    for _ in $(seq 1 50); do
        curl -sf "http://$dbg/metrics" >/dev/null 2>&1 && break
        sleep 0.1
    done
done

echo "== drive traffic"
"$WORK/hoverkv" -peers "$DATA_ADDRS" set smoke ok
"$WORK/hoverkv" -peers "$DATA_ADDRS" bench -n 500 -keys 50

fail() { echo "FAIL: $1" >&2; exit 1; }

echo "== check /metrics on every node"
for dbg in "${DEBUG_ADDRS[@]}"; do
    out=$(curl -sf "http://$dbg/metrics") || fail "no /metrics on $dbg"
    echo "$out" | grep -q '^# TYPE hovercraft_qdelay_window_p99_ns gauge' ||
        fail "$dbg: missing qdelay window TYPE line"
    echo "$out" | grep -q 'hovercraft_qdelay_window_p99_ns{shard="0",stage="ingress"}' ||
        fail "$dbg: missing ingress p99 series"
    echo "$out" | grep -q 'hovercraft_qdelay_slo_burn{shard="0",stage="wal_sync"}' ||
        fail "$dbg: missing wal_sync SLO burn series"
    echo "$out" | grep -q 'hovercraft_raft_is_leader{shard="0"}' ||
        fail "$dbg: missing raft role gauge"
    echo "$out" | grep -q 'hovercraft_wal_fsyncs_total{shard="0"}' ||
        fail "$dbg: missing WAL fsync counter"
done
echo "ok: per-stage queue-delay windows exposed on all 3 nodes"

echo "== hovertop -once -json over the fleet"
TARGETS=$(IFS=,; echo "${DEBUG_ADDRS[*]}")
snap=$("$WORK/hovertop" -targets "$TARGETS" -once -json) || fail "hovertop exited non-zero"
echo "$snap" >"$WORK/hovertop.json"
[ "$(echo "$snap" | grep -c '"up": true')" = 3 ] || fail "hovertop: not all 3 nodes up"
echo "$snap" | grep -q '"leader": "' || fail "hovertop: no leader in merged view"
echo "$snap" | grep -q '"stage": "raft_step"' || fail "hovertop: no raft_step stage row"
echo "$snap" | grep -q '"fsync_per_req"' || fail "hovertop: no fsync amortization field"
echo "$snap" | grep -q '"slo_burn"' || fail "hovertop: no SLO burn field"
echo "ok: hovertop aggregated 3 nodes into one cluster view"

echo "== hovertop dashboard render"
# Capture, then grep: piping into `grep -q` would close hovertop's
# stdout at the first match, and under pipefail the resulting EPIPE
# reads as a failure.
dash=$("$WORK/hovertop" -targets "$TARGETS" -once) || fail "hovertop -once failed"
echo "$dash" | grep -q '3/3 nodes up' ||
    fail "hovertop dashboard did not show the fleet"

echo "PASS: telemetry smoke"
