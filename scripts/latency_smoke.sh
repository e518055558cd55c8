#!/usr/bin/env bash
# Latency smoke test: run the ledger's write_open_2k workload (open-loop
# 2000 SET/s on a 3-node loopback-UDP cluster, bench/README.md) for 6 s
# and fail when
#   1. the run is not correct (a reply failed verification, replicas
#      diverged, an election happened), or
#   2. p50_us exceeds 1000: replication is event-driven, a write costs a
#      few kernel hops (~0.2 ms); a median above one tick means someone
#      put a timer back on the write path.
# The limit is five times the expected median, so host noise on a shared
# CI runner does not trip it, while one 1 ms tick on the path (~1.6 ms
# before event-driven pacing) does.
set -euo pipefail

cd "$(dirname "$0")/.."

LIMIT_US=${LIMIT_US:-1000}

line=$(bash bench/run.sh --workload write_open_2k --seed 1 --seconds 6 --trace 0 | tail -n 1)
echo "$line"

case "$line" in
    '{"correct":true,'*) ;;
    *) echo "FAIL: run not correct" >&2; exit 1 ;;
esac
p50=$(sed -n 's/.*"p50_us":{"value":\([0-9.eE+-]*\).*/\1/p' <<<"$line")
if [ -z "$p50" ]; then
    echo "FAIL: no p50_us in the result line" >&2
    exit 1
fi
if awk -v v="$p50" -v lim="$LIMIT_US" 'BEGIN { exit !(v > lim) }'; then
    echo "FAIL: write_open_2k p50_us = $p50 > $LIMIT_US: a timer is on the write path" >&2
    exit 1
fi
echo "ok: write_open_2k p50_us = $p50 (limit $LIMIT_US)"
