#!/bin/sh
# smoke_fleet.sh — CI smoke for the multi-process fleet engine.
#
# Boots mdserver (embedded fleet coordinator, short failure-detector
# timings) and two external mdworker processes, runs a synth PSA job on
# the fleet, kills one worker with SIGKILL while it demonstrably holds
# a lease, and asserts:
#
#   1. the fleet job still completes (the dead worker's leased blocks
#      are requeued onto the survivor), and
#   2. its matrix is byte-identical to the serial engine's.
#
# The serial reference is computed on a SECOND mdserver with its own
# (cold) block store. The store is shared across engines, so on one
# server whichever job ran second would be served the first one's
# blocks: a serial job first makes the fleet job an instant run of
# cache hits the SIGKILL can never land in, a fleet job first makes the
# "reference" a replay of the very blocks it is meant to check.
#
# Every spawned process is reaped from a single trap, so an assertion
# failure can never leak an mdserver/mdworker onto a CI runner's port.
set -eu

PORT="${SMOKE_FLEET_PORT:-18078}"
REF_PORT="${SMOKE_FLEET_REF_PORT:-18088}"
BASE="http://127.0.0.1:$PORT"
REF="http://127.0.0.1:$REF_PORT"
BIN="$(mktemp -d)"
OUT="$(mktemp -d)"
SERVER_PID=""
REF_PID=""
W1_PID=""
W2_PID=""

cleanup() {
    status=$?
    for pid in "$W1_PID" "$W2_PID" "$SERVER_PID" "$REF_PID"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    # Reap so no zombie outlives the recipe, then drop the scratch dirs.
    wait 2>/dev/null || true
    rm -rf "$BIN" "$OUT"
    if [ "$status" -ne 0 ]; then
        echo "smoke-fleet: FAILED (see above)" >&2
    fi
    exit "$status"
}
trap cleanup EXIT INT TERM HUP

echo "smoke-fleet: building mdserver + mdworker"
go build -o "$BIN/mdserver" ./cmd/mdserver
go build -o "$BIN/mdworker" ./cmd/mdworker

"$BIN/mdserver" -addr "127.0.0.1:$PORT" -workers 2 \
    -fleet-lease-ttl 3s -fleet-heartbeat-ttl 1500ms -fleet-sweep 100ms \
    >"$OUT/mdserver.log" 2>&1 &
SERVER_PID=$!
"$BIN/mdserver" -addr "127.0.0.1:$REF_PORT" -workers 2 >"$OUT/mdserver-ref.log" 2>&1 &
REF_PID=$!

for url in "$BASE" "$REF"; do
    i=0
    until curl -fsS "$url/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -ge 100 ] && { echo "smoke-fleet: mdserver at $url never became healthy" >&2; exit 1; }
        sleep 0.1
    done
done

"$BIN/mdworker" -coordinator "$BASE" -name smoke-w1 >"$OUT/w1.log" 2>&1 &
W1_PID=$!
"$BIN/mdworker" -coordinator "$BASE" -name smoke-w2 >"$OUT/w2.log" 2>&1 &
W2_PID=$!

i=0
until [ "$(curl -fsS "$BASE/v1/fleet" | jq -r .workers)" = "2" ]; do
    i=$((i + 1))
    [ "$i" -ge 100 ] && { echo "smoke-fleet: workers never registered" >&2; exit 1; }
    sleep 0.1
done
echo "smoke-fleet: mdserver up with 2 registered workers"

# The job: big enough that killing a worker lands mid-run (10 blocks
# of several hundred ms each on 2 workers — the kernel is O(frames²)
# per trajectory pair, so frames dominate), deterministic via a fixed
# seed.
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
            echo "smoke-fleet: job $2 ended $_state" >&2
            curl -fsS "$1/v1/jobs/$2" >&2 || true
            return 1
            ;;
        esac
        _i=$((_i + 1))
        [ "$_i" -ge "$3" ] && { echo "smoke-fleet: job $2 stuck in $_state" >&2; return 1; }
        sleep 0.1
    done
}

echo "smoke-fleet: submitting the serial reference to the second server, the fleet job to the first"
SERIAL_ID="$(submit "$REF" serial)"
FLEET_ID="$(submit "$BASE" fleet)"

# SIGKILL worker 1 the moment the coordinator shows it holding a lease
# — no drain, no deregister, exactly the failure the requeue path
# exists for. Gating on the worker's own active_leases (not on elapsed
# time or on blocks done) makes the kill land inside a unit: the lease
# it dies holding must be requeued for the job to finish at all. A job that finishes before the lease is observed
# means the job is sized wrong for this runner, and the gate fails
# rather than silently skipping the failure-path coverage.
KILLED=0
i=0
while :; do
    HELD="$(curl -fsS "$BASE/v1/fleet" | jq -r '[.worker_list[]? | select(.name == "smoke-w1") | .active_leases] | add // 0')"
    STATE="$(poll_state "$BASE" "$FLEET_ID")"
    if [ "$STATE" = "running" ] && [ "$HELD" -ge 1 ] 2>/dev/null; then
        kill -9 "$W1_PID"
        W1_PID=""
        KILLED=1
        echo "smoke-fleet: SIGKILLed worker 1 while it held $HELD lease(s)"
        break
    fi
    if [ "$STATE" = "done" ] || [ "$STATE" = "failed" ] || [ "$STATE" = "cancelled" ]; then
        echo "smoke-fleet: fleet job reached $STATE before a worker could be killed mid-run;" >&2
        echo "smoke-fleet: enlarge the synth job so the kill path is actually exercised" >&2
        exit 1
    fi
    i=$((i + 1))
    [ "$i" -ge 600 ] && { echo "smoke-fleet: fleet job never reached mid-run" >&2; exit 1; }
    sleep 0.05
done

wait_done "$BASE" "$FLEET_ID" 1200

# The coordinator must observe the death: the SIGKILLed worker stops
# heartbeating, so the failure detector has to count it lost (and
# requeue whatever it held) regardless of how the job finished.
[ "$KILLED" -eq 1 ] || { echo "smoke-fleet: internal error: kill not performed" >&2; exit 1; }
i=0
until [ "$(curl -fsS "$BASE/v1/fleet" | jq -r .workers_lost)" -ge 1 ] 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -ge 100 ] && { echo "smoke-fleet: coordinator never declared the killed worker dead" >&2; exit 1; }
    sleep 0.1
done
curl -fsS "$BASE/v1/jobs/$FLEET_ID/result" | jq -S .matrix >"$OUT/fleet.json"
wait_done "$REF" "$SERIAL_ID" 1200
curl -fsS "$REF/v1/jobs/$SERIAL_ID/result" | jq -S .matrix >"$OUT/serial.json"

if ! cmp -s "$OUT/serial.json" "$OUT/fleet.json"; then
    echo "smoke-fleet: fleet matrix differs from serial" >&2
    diff "$OUT/serial.json" "$OUT/fleet.json" | head >&2 || true
    exit 1
fi

REQUEUES="$(curl -fsS "$BASE/v1/fleet" | jq -r .requeues)"
LOST="$(curl -fsS "$BASE/v1/fleet" | jq -r .workers_lost)"
echo "smoke-fleet: matrices identical; coordinator saw requeues=$REQUEUES workers_lost=$LOST"
echo "smoke-fleet: OK"
