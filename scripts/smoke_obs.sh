#!/bin/sh
# smoke_obs.sh — CI smoke for the observability layer (internal/obs).
#
# Boots mdserver (embedded coordinator, tracing on) and two external
# mdworker processes with their own /metrics listeners, runs a serial
# and a fleet job, and asserts:
#
#   1. GET /metrics on mdserver and on a worker parse as Prometheus
#      text exposition (every sample line is NAME{LABELS} VALUE),
#   2. the key series exist and are consistent — in particular the
#      POST /v1/jobs request count equals the number of submissions,
#      and the worker observed block kernels and lease round-trips,
#   3. GET /v1/jobs/{id}/trace of the fleet job is Chrome trace_event
#      JSON in which every span shares one trace id, both processes
#      appear, the whole submit→queue→run→lease→kernel→record chain is
#      present, and each worker-side kernel span is parented under a
#      coordinator-side lease span — i.e. the trace survived two HTTP
#      hops between processes intact.
#
# Every spawned process is reaped from a single trap, so an assertion
# failure can never leak an mdserver/mdworker onto a CI runner's port.
set -eu

PORT="${SMOKE_OBS_PORT:-18082}"
W1_METRICS_PORT=$((PORT + 1))
W2_METRICS_PORT=$((PORT + 2))
BASE="http://127.0.0.1:$PORT"
BIN="$(mktemp -d)"
OUT="$(mktemp -d)"
SERVER_PID=""
W1_PID=""
W2_PID=""

cleanup() {
    status=$?
    for pid in "$W1_PID" "$W2_PID" "$SERVER_PID"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$BIN" "$OUT"
    if [ "$status" -ne 0 ]; then
        echo "smoke-obs: FAILED (see above)" >&2
    fi
    exit "$status"
}
trap cleanup EXIT INT TERM HUP

echo "smoke-obs: building mdserver + mdworker"
go build -o "$BIN/mdserver" ./cmd/mdserver
go build -o "$BIN/mdworker" ./cmd/mdworker

"$BIN/mdserver" -addr "127.0.0.1:$PORT" -workers 2 -log-format json \
    -fleet-lease-ttl 5s -fleet-heartbeat-ttl 2s -fleet-sweep 100ms \
    >"$OUT/mdserver.log" 2>&1 &
SERVER_PID=$!

i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -ge 100 ] && { echo "smoke-obs: mdserver never became healthy" >&2; exit 1; }
    sleep 0.1
done

"$BIN/mdworker" -coordinator "$BASE" -name smoke-obs-w1 \
    -metrics-addr "127.0.0.1:$W1_METRICS_PORT" >"$OUT/w1.log" 2>&1 &
W1_PID=$!
"$BIN/mdworker" -coordinator "$BASE" -name smoke-obs-w2 \
    -metrics-addr "127.0.0.1:$W2_METRICS_PORT" >"$OUT/w2.log" 2>&1 &
W2_PID=$!

i=0
until [ "$(curl -fsS "$BASE/v1/fleet" | jq -r .workers)" = "2" ]; do
    i=$((i + 1))
    [ "$i" -ge 100 ] && { echo "smoke-obs: workers never registered" >&2; exit 1; }
    sleep 0.1
done
echo "smoke-obs: mdserver up with 2 registered workers"

# The two jobs use different synth seeds on purpose: blocks are
# content-addressed across engines, so a same-seed fleet job after the
# serial one could be served from the block cache without ever leasing
# a unit — and the trace would have no worker-side spans to assert on.
submit() { # submit <engine> <seed> -> job id
    curl -fsS -X POST "$BASE/v1/jobs" \
        -d "{\"analysis\":\"psa\",\"engine\":\"$1\",\"parallelism\":2,\"tasks\":8,\"synth\":{\"count\":6,\"atoms\":32,\"frames\":24,\"seed\":$2}}" |
        jq -r .id
}

wait_done() { # wait_done <id>
    _i=0
    while :; do
        _state="$(curl -fsS "$BASE/v1/jobs/$1" | jq -r .state)"
        case "$_state" in
        done) return 0 ;;
        failed | cancelled)
            echo "smoke-obs: job $1 ended $_state" >&2
            curl -fsS "$BASE/v1/jobs/$1" >&2 || true
            return 1
            ;;
        esac
        _i=$((_i + 1))
        [ "$_i" -ge 600 ] && { echo "smoke-obs: job $1 stuck in $_state" >&2; return 1; }
        sleep 0.1
    done
}

echo "smoke-obs: running one serial and one fleet job"
SERIAL_ID="$(submit serial 1)"
wait_done "$SERIAL_ID"
FLEET_ID="$(submit fleet 42)"
wait_done "$FLEET_ID"
SUBMISSIONS=2

# --- 1. Exposition format -------------------------------------------------

# Every non-comment, non-blank line must be a valid sample:
# name, optional {labels}, and a float value (incl. +Inf/NaN/exponent).
validate_exposition() { # validate_exposition <file> <what>
    if bad=$(grep -vE '^(#|$)' "$1" | grep -vE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? (-?[0-9.]+([eE][+-]?[0-9]+)?|[+-]Inf|NaN)$'); then
        if [ -n "$bad" ]; then
            echo "smoke-obs: $2 has malformed exposition lines:" >&2
            echo "$bad" | head >&2
            exit 1
        fi
    fi
}

curl -fsS "$BASE/metrics" >"$OUT/server_metrics.txt"
curl -fsS "http://127.0.0.1:$W1_METRICS_PORT/metrics" >"$OUT/worker_metrics.txt"
validate_exposition "$OUT/server_metrics.txt" "mdserver /metrics"
validate_exposition "$OUT/worker_metrics.txt" "mdworker /metrics"

CT="$(curl -fsSI "$BASE/metrics" | tr -d '\r' | grep -i '^content-type:' | cut -d' ' -f2-)"
case "$CT" in
"text/plain; version=0.0.4"*) ;;
*)
    echo "smoke-obs: /metrics Content-Type is '$CT', want text/plain; version=0.0.4" >&2
    exit 1
    ;;
esac
echo "smoke-obs: both expositions parse"

# --- 2. Key series --------------------------------------------------------

need_series() { # need_series <file> <grep-pattern> <what>
    grep -qE "$2" "$1" || {
        echo "smoke-obs: $3 missing from $(basename "$1") (pattern: $2)" >&2
        exit 1
    }
}

need_series "$OUT/server_metrics.txt" '^mdtask_build_info\{[^}]*service="mdserver"' "build info gauge"
need_series "$OUT/server_metrics.txt" '^mdtask_jobs_submitted_total 2$' "submitted-jobs counter"
need_series "$OUT/server_metrics.txt" '^mdtask_jobs_completed_total\{state="done"\} 2$' "completed-jobs counter"
need_series "$OUT/server_metrics.txt" '^mdtask_job_queue_wait_seconds_count 2$' "queue-wait histogram"
need_series "$OUT/server_metrics.txt" '^mdtask_job_run_seconds_bucket\{[^}]*engine="fleet"' "run-time histogram"
need_series "$OUT/server_metrics.txt" '^go_goroutines ' "runtime gauge"

# The HTTP middleware's POST /v1/jobs accounting must equal the number
# of submissions this script made — both the counter and the histogram.
POSTS="$(grep -E '^mdtask_http_requests_total\{[^}]*method="POST",path="/v1/jobs",code="202"\}' "$OUT/server_metrics.txt" | awk '{print $2}')"
if [ "$POSTS" != "$SUBMISSIONS" ]; then
    echo "smoke-obs: POST /v1/jobs request counter is '$POSTS', want $SUBMISSIONS" >&2
    exit 1
fi
HIST_COUNT="$(grep -E '^mdtask_http_request_duration_seconds_count\{[^}]*method="POST",path="/v1/jobs"\}' "$OUT/server_metrics.txt" | awk '{print $2}')"
if [ "$HIST_COUNT" != "$SUBMISSIONS" ]; then
    echo "smoke-obs: POST /v1/jobs duration histogram count is '$HIST_COUNT', want $SUBMISSIONS" >&2
    exit 1
fi

need_series "$OUT/worker_metrics.txt" '^mdtask_build_info\{[^}]*service="mdworker"' "worker build info gauge"
need_series "$OUT/worker_metrics.txt" '^mdtask_fleet_lease_roundtrip_seconds_count [1-9]' "lease round-trip histogram"
# Which worker leases the handful of units is a race — one of them can
# legitimately run none — so the kernel histogram is summed over both.
curl -fsS "http://127.0.0.1:$W2_METRICS_PORT/metrics" >"$OUT/worker2_metrics.txt"
validate_exposition "$OUT/worker2_metrics.txt" "second mdworker /metrics"
KERNELS="$(cat "$OUT/worker_metrics.txt" "$OUT/worker2_metrics.txt" | awk '/^mdtask_block_kernel_seconds_count / {s += $2} END {print s+0}')"
if [ "$KERNELS" -lt 1 ]; then
    echo "smoke-obs: the workers observed no block kernels (count: '$KERNELS')" >&2
    exit 1
fi
echo "smoke-obs: key series present (POST /v1/jobs count=$POSTS, worker kernels=$KERNELS)"

# --- 3. Cross-process trace -----------------------------------------------

curl -fsS "$BASE/v1/jobs/$FLEET_ID/trace" >"$OUT/trace.json"

jq -e '
  [.traceEvents[] | select(.ph=="X")] as $x
  | [$x[] | select(.name=="fleet.lease") | .args.span_id] as $leases
  | [$x[] | select(.name=="worker.kernel")] as $kernels
  | ([$x[] | .args.trace_id] | unique | length) == 1
    and ([.traceEvents[] | select(.ph=="M") | .args.name] | (index("mdserver") != null) and (index("mdworker") != null))
    and ([$x[] | .name] | (index("job") != null) and (index("queue.wait") != null)
         and (index("run") != null) and (index("engine.fleet") != null)
         and (index("fleet.job") != null) and (index("fleet.record") != null))
    and ($kernels | length) > 0
    and ($kernels | all(.args.parent_id as $p | $leases | index($p) != null))
' "$OUT/trace.json" >/dev/null || {
    echo "smoke-obs: fleet job trace failed the cross-process assertions" >&2
    jq '[.traceEvents[] | select(.ph=="X") | {name, proc: .pid, parent: .args.parent_id}]' "$OUT/trace.json" >&2 || cat "$OUT/trace.json" >&2
    exit 1
}
N_SPANS="$(jq '[.traceEvents[] | select(.ph=="X")] | length' "$OUT/trace.json")"
N_KERNELS="$(jq '[.traceEvents[] | select(.ph=="X" and .name=="worker.kernel")] | length' "$OUT/trace.json")"
echo "smoke-obs: fleet trace OK ($N_SPANS spans, $N_KERNELS worker kernels, one trace id, kernels nest under leases)"

# The status payload advertises the same trace id the export carries.
STATUS_TRACE="$(curl -fsS "$BASE/v1/jobs/$FLEET_ID" | jq -r .trace_id)"
EXPORT_TRACE="$(jq -r '[.traceEvents[] | select(.ph=="X") | .args.trace_id] | unique | .[0]' "$OUT/trace.json")"
if [ "$STATUS_TRACE" != "$EXPORT_TRACE" ]; then
    echo "smoke-obs: status trace_id $STATUS_TRACE != exported trace id $EXPORT_TRACE" >&2
    exit 1
fi

echo "smoke-obs: OK"
