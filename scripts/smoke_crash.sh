#!/bin/sh
# smoke_crash.sh — CI gate for the durable job store and crash recovery.
#
# Boots mdserver with a -data-dir journal and two external mdworkers,
# then SIGKILLs mdserver while a fleet job is demonstrably mid-run. A
# second mdserver is started against the SAME data directory and the
# gate asserts:
#
#   1. zero lost jobs — the job submitted before the kill is listed
#      after the restart, under its original id;
#   2. the mid-run fleet job is re-run from its journaled spec and
#      completes with a matrix byte-identical to a serial reference
#      computed on a second, journal-less mdserver;
#   3. /metrics exposes the recovery evidence: jobs_recovered > 0,
#      wal_records_replayed > 0, and wal_records_skipped == 0.
#
# The reference runs on its own server because the block store is
# shared across engines: on one server a serial job first would make
# the fleet job an instant run of cache hits the SIGKILL could never
# land in, and a serial job afterwards would be served the recovered
# fleet job's own blocks — a replay, not a reference.
#
# Every spawned process is reaped from a single trap, so an assertion
# failure can never leak an mdserver/mdworker onto a CI runner's port.
set -eu

PORT="${SMOKE_CRASH_PORT:-18079}"
REF_PORT="${SMOKE_CRASH_REF_PORT:-18089}"
BASE="http://127.0.0.1:$PORT"
REF="http://127.0.0.1:$REF_PORT"
BIN="$(mktemp -d)"
OUT="$(mktemp -d)"
DATA="$OUT/data"
SERVER_PID=""
REF_PID=""
W1_PID=""
W2_PID=""

cleanup() {
    status=$?
    for pid in "$W1_PID" "$W2_PID" "$SERVER_PID" "$REF_PID"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$BIN" "$OUT"
    if [ "$status" -ne 0 ]; then
        echo "smoke-crash: FAILED (see above)" >&2
    fi
    exit "$status"
}
trap cleanup EXIT INT TERM HUP

echo "smoke-crash: building mdserver + mdworker"
go build -o "$BIN/mdserver" ./cmd/mdserver
go build -o "$BIN/mdworker" ./cmd/mdworker

start_server() {
    "$BIN/mdserver" -addr "127.0.0.1:$PORT" -workers 2 -data-dir "$DATA" \
        -fleet-lease-ttl 3s -fleet-heartbeat-ttl 1500ms -fleet-sweep 100ms \
        >>"$OUT/mdserver.log" 2>&1 &
    SERVER_PID=$!
}

wait_healthy() { # wait_healthy <server>
    i=0
    until curl -fsS "$1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -ge 100 ] && { echo "smoke-crash: mdserver at $1 never became healthy" >&2; exit 1; }
        sleep 0.1
    done
}

# wait_workers blocks until the coordinator tracks <count> workers
# under distinct names. The bound is a failure report, not a pacing
# device: a worker (re-)registers on its next heartbeat, within one
# 500 ms beat of the coordinator answering, so reaching it means
# registration is broken — and the evidence is printed.
wait_workers() { # wait_workers <count>
    i=0
    until [ "$(curl -fsS "$BASE/v1/fleet" | jq -r '[.worker_list[]?.name] | unique | length')" = "$1" ]; do
        i=$((i + 1))
        if [ "$i" -ge 200 ]; then
            echo "smoke-crash: $1 distinct worker(s) never registered; coordinator and worker logs:" >&2
            curl -fsS "$BASE/v1/fleet" >&2 || true
            cat "$OUT/w1.log" "$OUT/w2.log" >&2 || true
            exit 1
        fi
        sleep 0.1
    done
}

start_server
"$BIN/mdserver" -addr "127.0.0.1:$REF_PORT" -workers 2 >"$OUT/mdserver-ref.log" 2>&1 &
REF_PID=$!
wait_healthy "$BASE"
wait_healthy "$REF"

"$BIN/mdworker" -coordinator "$BASE" -name smoke-crash-w1 >"$OUT/w1.log" 2>&1 &
W1_PID=$!
"$BIN/mdworker" -coordinator "$BASE" -name smoke-crash-w2 >"$OUT/w2.log" 2>&1 &
W2_PID=$!
wait_workers 2
echo "smoke-crash: mdserver up with journal in $DATA and 2 registered workers"

# Same job sizing as smoke_fleet: big enough that the SIGKILL lands
# mid-run, deterministic via a fixed seed.
SPEC_TAIL='"parallelism":2,"tasks":16,"synth":{"count":8,"atoms":128,"frames":640,"seed":42}'

submit() { # submit <server> <engine> -> job id
    curl -fsS -X POST "$1/v1/jobs" \
        -d "{\"analysis\":\"psa\",\"engine\":\"$2\",$SPEC_TAIL}" | jq -r .id
}

poll_state() { # poll_state <server> <id>
    curl -fsS "$1/v1/jobs/$2" | jq -r .state
}

wait_done() { # wait_done <server> <id> <max-deciseconds>
    _i=0
    while :; do
        _state="$(poll_state "$1" "$2")"
        case "$_state" in
        done) return 0 ;;
        failed | cancelled)
            echo "smoke-crash: job $2 ended $_state" >&2
            curl -fsS "$1/v1/jobs/$2" >&2 || true
            return 1
            ;;
        esac
        _i=$((_i + 1))
        [ "$_i" -ge "$3" ] && { echo "smoke-crash: job $2 stuck in $_state" >&2; return 1; }
        sleep 0.1
    done
}

echo "smoke-crash: running the fleet job (and the serial reference, elsewhere) and SIGKILLing mdserver mid-run"
SERIAL_ID="$(submit "$REF" serial)"
FLEET_ID="$(submit "$BASE" fleet)"

# Wait until the fleet job is demonstrably mid-run, then SIGKILL the
# SERVER — no drain, no shutdown marker, the journal simply stops. A
# job that finishes before the kill lands means the job is sized wrong
# for this runner, and the gate fails rather than skipping the
# recovery-path coverage.
i=0
while :; do
    TASKS_DONE="$(curl -fsS "$BASE/v1/jobs/$FLEET_ID" | jq -r .tasks_done)"
    STATE="$(poll_state "$BASE" "$FLEET_ID")"
    if [ "$STATE" = "running" ] && [ "$TASKS_DONE" -ge 1 ] 2>/dev/null; then
        kill -9 "$SERVER_PID"
        wait "$SERVER_PID" 2>/dev/null || true
        SERVER_PID=""
        echo "smoke-crash: SIGKILLed mdserver after $TASKS_DONE blocks"
        break
    fi
    if [ "$STATE" = "done" ] || [ "$STATE" = "failed" ] || [ "$STATE" = "cancelled" ]; then
        echo "smoke-crash: fleet job reached $STATE before mdserver could be killed mid-run;" >&2
        echo "smoke-crash: enlarge the synth job so the recovery path is actually exercised" >&2
        exit 1
    fi
    i=$((i + 1))
    [ "$i" -ge 600 ] && { echo "smoke-crash: fleet job never reached mid-run" >&2; exit 1; }
    sleep 0.05
done

echo "smoke-crash: restarting mdserver against the same -data-dir"
start_server
wait_healthy "$BASE"

# Zero lost jobs: the pre-crash fleet job must be listed under its
# original id, re-enqueued from its journaled spec.
JOB_COUNT="$(curl -fsS "$BASE/v1/jobs" | jq length)"
if [ "$JOB_COUNT" -ne 1 ]; then
    echo "smoke-crash: $JOB_COUNT job(s) after restart, want 1" >&2
    curl -fsS "$BASE/v1/jobs" >&2 || true
    exit 1
fi
if ! curl -fsS "$BASE/v1/jobs/$FLEET_ID" >/dev/null; then
    echo "smoke-crash: job $FLEET_ID lost across the restart" >&2
    exit 1
fi

# The orphaned workers re-register on their next heartbeat: the ids the
# dead coordinator issued carry its incarnation tag, so the restarted
# one answers 404 to both — never 200 to one of them under an id it has
# just re-issued to the other, which is what used to leave this wait
# one worker short. The recovered job is what the gate is about; both
# workers being back, each under its own identity, is asserted once it
# is done.
wait_done "$BASE" "$FLEET_ID" 1800
wait_workers 2
echo "smoke-crash: recovered job done; both workers re-registered under distinct ids"
curl -fsS "$BASE/v1/jobs/$FLEET_ID/result" | jq -S .matrix >"$OUT/fleet.json"

wait_done "$REF" "$SERIAL_ID" 1200
curl -fsS "$REF/v1/jobs/$SERIAL_ID/result" | jq -S .matrix >"$OUT/serial.json"

if ! cmp -s "$OUT/serial.json" "$OUT/fleet.json"; then
    echo "smoke-crash: recovered fleet matrix differs from serial reference" >&2
    diff "$OUT/serial.json" "$OUT/fleet.json" | head >&2 || true
    exit 1
fi
echo "smoke-crash: recovered matrix byte-identical to the serial reference"

# Recovery evidence on /metrics: jobs recovered, journal replayed,
# nothing skipped (a skip would mean the log saw corruption).
METRICS="$(curl -fsS "$BASE/metrics")"
RECOVERED="$(printf '%s\n' "$METRICS" | awk '/^mdtask_jobs_recovered_total/ {s += $NF} END {print s+0}')"
REPLAYED="$(printf '%s\n' "$METRICS" | awk '/^mdtask_wal_records_replayed_total/ {s += $NF} END {print s+0}')"
SKIPPED="$(printf '%s\n' "$METRICS" | awk '/^mdtask_wal_records_skipped_total/ {s += $NF} END {print s+0}')"
if [ "$RECOVERED" -lt 1 ]; then
    echo "smoke-crash: mdtask_jobs_recovered_total = $RECOVERED, want >= 1" >&2
    exit 1
fi
if [ "$REPLAYED" -lt 1 ]; then
    echo "smoke-crash: mdtask_wal_records_replayed_total = $REPLAYED, want >= 1" >&2
    exit 1
fi
if [ "$SKIPPED" -ne 0 ]; then
    echo "smoke-crash: mdtask_wal_records_skipped_total = $SKIPPED, want 0" >&2
    exit 1
fi
echo "smoke-crash: jobs_recovered=$RECOVERED wal_records_replayed=$REPLAYED wal_records_skipped=$SKIPPED"
echo "smoke-crash: OK"
