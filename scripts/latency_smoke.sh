#!/usr/bin/env bash
# Real-plane smoke test: run two of the ledger's workloads on a 3-node
# loopback-UDP cluster (bench/README.md) for 6 s each. Either fails when
# its run is not correct (a reply failed verification, replicas
# diverged, an election happened), and each guards one regression:
#   1. write_open_2k (open-loop 2000 SET/s) fails when p50_us exceeds
#      1000: replication is event-driven, a write costs a few kernel hops
#      (~0.2 ms); a median above one tick means someone put a timer back
#      on the write path. The limit is five times the expected median, so
#      host noise on a shared CI runner does not trip it, while one 1 ms
#      tick on the path (~1.6 ms before event-driven pacing) does.
#   2. write_sat_128 (128 closed-loop writers), traced, fails when
#      transport.dg_per_sendmmsg is below 3: state-machine operations run
#      to completion on the owner loop, so a saturated pass executes
#      everything it committed and one sendmmsg carries all the replies
#      (~12 datagrams per call). Near 1 means a per-operation hop is back
#      between execution and the egress batch — each completion waking
#      the loop for a pass, and a syscall, of its own. The floor is a
#      ratio of counts, so it does not depend on host speed.
set -euo pipefail

cd "$(dirname "$0")/.."

LIMIT_US=${LIMIT_US:-1000}

# metric WORKLOAD TRACE NAME runs WORKLOAD for 6 s, echoes its result
# line to stderr, fails unless the run is correct and prints NAME's value.
metric() {
    local line v
    line=$(bash bench/run.sh --workload "$1" --seed 1 --seconds 6 --trace "$2" | tail -n 1)
    echo "$line" >&2
    case "$line" in
        '{"correct":true,'*) ;;
        *) echo "FAIL: $1 run not correct" >&2; exit 1 ;;
    esac
    v=$(sed -n "s/.*\"$3\":{\"value\":\([0-9.eE+-]*\).*/\1/p" <<<"$line")
    if [ -z "$v" ]; then
        echo "FAIL: no $3 in the $1 result line" >&2
        exit 1
    fi
    echo "$v"
}

p50=$(metric write_open_2k 0 p50_us)
if awk -v v="$p50" -v lim="$LIMIT_US" 'BEGIN { exit !(v > lim) }'; then
    echo "FAIL: write_open_2k p50_us = $p50 > $LIMIT_US: a timer is on the write path" >&2
    exit 1
fi
echo "ok: write_open_2k p50_us = $p50 (limit $LIMIT_US)"

dg=$(metric write_sat_128 1 transport.dg_per_sendmmsg)
if awk -v v="$dg" 'BEGIN { exit !(v < 3) }'; then
    echo "FAIL: write_sat_128 dg_per_sendmmsg = $dg < 3: replies are not batched per pass" >&2
    exit 1
fi
echo "ok: write_sat_128 dg_per_sendmmsg = $dg (floor 3)"
