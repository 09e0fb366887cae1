#!/bin/sh
# loadgate.sh — CI gate for the production load harness (cmd/mdload).
#
# Boots mdserver with a deliberately small queue (-queue 4, below the
# harness concurrency of 8, so the overload scenario MUST provoke
# 429s) plus two healthy external mdworkers, then runs the full
# non-chaos scenario suite with every deterministic invariant gating:
#
#   - zero lost jobs (every accepted submission reaches a terminal
#     state the scenario allows);
#   - counter deltas match harness counts exactly (submitted,
#     rejected); every 429 carries Retry-After; every oversized body
#     answers 413;
#   - wal_records_skipped == 0 on the journal-backed server;
#   - go_goroutines returns to baseline after each scenario.
#
# The healthy workers are then replaced by one mdworker started with
# MDTASK_FAULTS arming the fleet.unit.execute point — a slowdown, an
# injected unit failure (exercising the failure-nack requeue), and a
# process crash (exercising the lease-expiry failure detector) — and
# the chaos scenario runs with -chaos, which additionally REQUIRES
# scraped evidence that the faults fired; two fresh healthy workers
# join once the armed one has crashed and finish the jobs. The two
# invariant reports land in BENCH_load.json and BENCH_load_chaos.json;
# nothing here measures time (benchmark/ does).
#
# Every spawned process is reaped from a single trap, so an assertion
# failure can never leak an mdserver/mdworker onto a CI runner's port.
set -eu

PORT="${LOADGATE_PORT:-18081}"
BASE="http://127.0.0.1:$PORT"
BIN="$(mktemp -d)"
OUT="$(mktemp -d)"
DATA="$OUT/data"
REPORT_DIR="${LOADGATE_REPORT_DIR:-.}"
SERVER_PID=""
W1_PID=""
W2_PID=""
W3_PID=""
LOAD_PID=""

cleanup() {
    status=$?
    for pid in "$LOAD_PID" "$W1_PID" "$W2_PID" "$W3_PID" "$SERVER_PID"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$BIN" "$OUT"
    if [ "$status" -ne 0 ]; then
        echo "loadgate: FAILED (see above)" >&2
    fi
    exit "$status"
}
trap cleanup EXIT INT TERM HUP

echo "loadgate: building mdserver + mdworker + mdload"
go build -o "$BIN/mdserver" ./cmd/mdserver
go build -o "$BIN/mdworker" ./cmd/mdworker
go build -o "$BIN/mdload" ./cmd/mdload

# Queue depth 4 < harness concurrency 8: the overload scenario must
# provoke real 429s (-expect-shed makes their absence a failure).
# Short fleet TTLs so the chaos worker's crash is detected quickly.
"$BIN/mdserver" -addr "127.0.0.1:$PORT" -workers 2 -queue 4 -data-dir "$DATA" \
    -fleet-lease-ttl 3s -fleet-heartbeat-ttl 1500ms -fleet-sweep 100ms \
    >"$OUT/mdserver.log" 2>&1 &
SERVER_PID=$!

wait_healthy() {
    i=0
    until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -ge 100 ] && { echo "loadgate: mdserver never became healthy" >&2; exit 1; }
        sleep 0.1
    done
}

wait_workers() { # wait_workers <count>
    i=0
    until [ "$(curl -fsS "$BASE/v1/fleet" | jq -r .workers)" = "$1" ]; do
        i=$((i + 1))
        [ "$i" -ge 200 ] && { echo "loadgate: $1 worker(s) never registered" >&2; exit 1; }
        sleep 0.1
    done
}

wait_healthy
"$BIN/mdworker" -coordinator "$BASE" -name loadgate-w1 >"$OUT/w1.log" 2>&1 &
W1_PID=$!
"$BIN/mdworker" -coordinator "$BASE" -name loadgate-w2 >"$OUT/w2.log" 2>&1 &
W2_PID=$!
wait_workers 2
echo "loadgate: mdserver up (queue=4, journal in \$OUT/data) with 2 healthy workers"

echo "loadgate: running the non-chaos suite"
"$BIN/mdload" -server "$BASE" \
    -scenario resubmit-storm,delta-append,fleet-fanout,cancel-storm,stream-mix,overload \
    -jobs 24 -concurrency 8 -seed 1 \
    -expect-shed -require-workers -gate \
    -json "$REPORT_DIR/BENCH_load.json"

# Chaos leg: a worker armed at the fleet.unit.execute point — its 1st
# unit is slowed, its 2nd fails (failure nack -> immediate requeue),
# its 4th crashes the process (exit 137 -> heartbeat expiry -> leases
# requeued by the failure detector). The faults fire by unit count, so
# the armed worker must lease four units — and the scenario's ~96 small
# units last about as long on two healthy workers as one idle poll of a
# third (200 ms), so beside them it often leased none. It therefore
# takes the leg's first units alone: the healthy workers deregister
# before it starts (a clean shutdown, not a lost worker, so the
# fleet-stat deltas the chaos gate checks are all the armed worker's
# own), the scenario runs until the armed worker has crashed, and two
# fresh healthy workers then finish every job, the dead worker's
# requeued lease included.
echo "loadgate: running the chaos scenario against a fault-armed worker"
kill "$W1_PID" "$W2_PID"
wait "$W1_PID" "$W2_PID" 2>/dev/null || true
W1_PID=""
W2_PID=""
wait_workers 0
MDTASK_FAULTS='fleet.unit.execute=sleep:50ms@1,fleet.unit.execute=error@2,fleet.unit.execute=crash@4' \
    "$BIN/mdworker" -coordinator "$BASE" -name loadgate-chaos >"$OUT/w3.log" 2>&1 &
W3_PID=$!
wait_workers 1
"$BIN/mdload" -server "$BASE" -scenario chaos \
    -jobs 12 -concurrency 4 -seed 1 \
    -chaos -require-workers -gate \
    -json "$REPORT_DIR/BENCH_load_chaos.json" &
LOAD_PID=$!

# The armed worker must actually die at its fourth unit (crash@4),
# proving the killed-worker path ran, not just the nack path.
i=0
while kill -0 "$W3_PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -ge 300 ] && { echo "loadgate: chaos worker never crashed" >&2; exit 1; }
    sleep 0.1
done
status=0
wait "$W3_PID" || status=$?
W3_PID=""
if [ "$status" -ne 137 ]; then
    echo "loadgate: chaos worker exited $status, want 137 (crash@4)" >&2
    exit 1
fi
echo "loadgate: chaos worker crashed at its 4th unit; attaching 2 healthy workers"
"$BIN/mdworker" -coordinator "$BASE" -name loadgate-w4 >"$OUT/w4.log" 2>&1 &
W1_PID=$!
"$BIN/mdworker" -coordinator "$BASE" -name loadgate-w5 >"$OUT/w5.log" 2>&1 &
W2_PID=$!
wait "$LOAD_PID"
LOAD_PID=""

# ... and the coordinator must have noticed: the crash is a lost worker.
if [ "$(curl -fsS "$BASE/v1/fleet" | jq -r .workers_lost)" -lt 1 ]; then
    echo "loadgate: chaos worker's crash went unnoticed (workers_lost == 0)" >&2
    exit 1
fi

echo "loadgate: reports in $REPORT_DIR/BENCH_load.json, $REPORT_DIR/BENCH_load_chaos.json"
echo "loadgate: OK"
