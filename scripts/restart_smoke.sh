#!/usr/bin/env bash
# Restart smoke test: boot a real three-node, two-shard loopback cluster
# on fsynced write-ahead logs, write 50 keys, SIGTERM every node, restart
# all three with the same flags, and read every key back. Any key missing
# after the restart fails the script: the logs under -wal DIR/shard<s>
# must carry every acknowledged write across a whole-cluster restart.
# CI runs this against the binaries at HEAD; it needs only loopback.
set -euo pipefail

cd "$(dirname "$0")/.."

BASE_PORT=${BASE_PORT:-7521}
SHARDS=2
KEYS=50
WORK=$(mktemp -d)
declare -a PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "FAIL: $1" >&2; exit 1; }

echo "== build"
go build -o "$WORK" ./cmd/hovernode ./cmd/hoverkv

# Shard s of each node binds its base port+s: space the bases apart.
PEERS="1=127.0.0.1:$BASE_PORT,2=127.0.0.1:$((BASE_PORT+SHARDS)),3=127.0.0.1:$((BASE_PORT+2*SHARDS))"
DATA_ADDRS="127.0.0.1:$BASE_PORT,127.0.0.1:$((BASE_PORT+SHARDS)),127.0.0.1:$((BASE_PORT+2*SHARDS))"
kv() { "$WORK/hoverkv" -peers "$DATA_ADDRS" -shards "$SHARDS" "$@"; }

start_nodes() {
    PIDS=()
    for id in 1 2 3; do
        "$WORK/hovernode" -id "$id" -peers "$PEERS" -shards "$SHARDS" \
            -wal "$WORK/wal$id" -wal-sync -fsync-batch 32 -bootstrap \
            >>"$WORK/node$id.log" 2>&1 &
        PIDS+=($!)
    done
}

# wait_for KEY VALUE: poll until KEY reads VALUE (elections settle).
wait_for() {
    for _ in $(seq 1 50); do
        [ "$(kv get "$1" 2>/dev/null)" = "$2" ] && return 0
        sleep 0.2
    done
    return 1
}

echo "== start 3 hovernodes, $SHARDS shards each ($PEERS)"
start_nodes
for _ in $(seq 1 50); do
    [ "$(kv set probe up 2>/dev/null)" = OK ] && break
    sleep 0.2
done
wait_for probe up || fail "cluster never accepted a write"

echo "== write $KEYS keys"
for i in $(seq 1 "$KEYS"); do
    [ "$(kv set "key$i" "value$i")" = OK ] || fail "set key$i not acknowledged"
done

echo "== SIGTERM all three nodes"
for pid in "${PIDS[@]}"; do kill -TERM "$pid"; done
for pid in "${PIDS[@]}"; do wait "$pid" || true; done
[ -d "$WORK/wal1/shard0" ] && [ -d "$WORK/wal1/shard1" ] || fail "no per-shard WAL directories"

echo "== restart with the same flags"
start_nodes
wait_for key1 value1 || fail "key1 not readable after restart"

echo "== read every key back"
missing=0
for i in $(seq 1 "$KEYS"); do
    got=$(kv get "key$i" || true)
    if [ "$got" != "value$i" ]; then
        echo "missing: key$i = '$got'" >&2
        missing=$((missing+1))
    fi
done
[ "$missing" = 0 ] || fail "$missing of $KEYS keys lost across the restart"

echo "PASS: restart smoke ($KEYS keys across $SHARDS shards survived a whole-cluster restart)"
