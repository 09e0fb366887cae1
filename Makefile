GO ?= go
SERVE_ADDR ?= :8077
SMOKE_PORT ?= 18077
BENCH_CURRENT ?= /tmp/mdtask-bench-current.json
FUZZTIME ?= 10s

.PHONY: build test bench bench-json bench-gate benchmark benchmark-compare docslint enginelint deadapi fmt vet serve smoke-serve smoke-fleet smoke-stream smoke-cache smoke-obs smoke-crash fuzz race soak loadgate

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Run the analysis job server (cmd/mdserver) in the foreground.
serve:
	$(GO) run ./cmd/mdserver -addr $(SERVE_ADDR)

# CI smoke: build mdserver, start it, hit /healthz, submit a tiny synth
# PSA job, poll it to completion and assert a 200 result. The trap
# covers INT/TERM/HUP as well as EXIT and reaps the server, so an
# assertion failure (or a cancelled CI run) never leaks an mdserver
# onto the runner's port; the binary lives in a per-run scratch dir so
# parallel invocations cannot trample each other.
smoke-serve:
	@set -eu; \
	bin=$$(mktemp -d); pid=""; \
	trap 'status=$$?; [ -n "$$pid" ] && kill $$pid 2>/dev/null || true; \
	      wait 2>/dev/null || true; rm -rf "$$bin"; exit $$status' EXIT INT TERM HUP; \
	$(GO) build -o $$bin/mdserver ./cmd/mdserver; \
	$$bin/mdserver -addr 127.0.0.1:$(SMOKE_PORT) & pid=$$!; \
	for i in $$(seq 1 50); do \
	  curl -fsS http://127.0.0.1:$(SMOKE_PORT)/healthz >/dev/null 2>&1 && break; \
	  sleep 0.1; \
	done; \
	curl -fsS http://127.0.0.1:$(SMOKE_PORT)/healthz; echo; \
	id=$$(curl -fsS -X POST http://127.0.0.1:$(SMOKE_PORT)/v1/jobs \
	  -d '{"analysis":"psa","engine":"dask","synth":{"count":3,"atoms":8,"frames":4}}' | jq -r .id); \
	echo "submitted $$id"; \
	state=queued; \
	for i in $$(seq 1 100); do \
	  state=$$(curl -fsS http://127.0.0.1:$(SMOKE_PORT)/v1/jobs/$$id | jq -r .state); \
	  [ "$$state" = "done" ] && break; \
	  [ "$$state" = "failed" ] && { echo "job failed" >&2; exit 1; }; \
	  sleep 0.1; \
	done; \
	[ "$$state" = "done" ] || { echo "job stuck in $$state" >&2; exit 1; }; \
	curl -fsS -o /dev/null -w '%{http_code}\n' http://127.0.0.1:$(SMOKE_PORT)/v1/jobs/$$id/result | grep -q 200; \
	echo "smoke-serve OK"

# CI smoke for the fleet engine: mdserver + 2 external mdworkers, one
# SIGKILLed mid-job; the job must finish with a matrix identical to
# the serial engine's (see scripts/smoke_fleet.sh).
smoke-fleet:
	sh scripts/smoke_fleet.sh

# CI smoke for the block-level result store: submit a synth PSA job,
# resubmit it grown by one trajectory, and assert via the HTTP API that
# only the new row/column blocks ran — 10 block hits, 5 misses, and
# exactly the new trajectory's frame pairs evaluated (see
# scripts/smoke_cache.sh).
smoke-cache:
	sh scripts/smoke_cache.sh

# CI smoke for the observability layer: mdserver + 2 external
# mdworkers with /metrics listeners; both expositions must parse, the
# POST /v1/jobs counters must equal the submissions made, and the
# fleet job's Chrome trace must span both processes with every
# worker-side kernel span parented under a coordinator-side lease
# span (see scripts/smoke_obs.sh).
smoke-obs:
	sh scripts/smoke_obs.sh

# CI gate for the durable job store: mdserver with a -data-dir journal
# is SIGKILLed mid-fleet-job and restarted against the same directory;
# zero jobs may be lost, the recovered job must complete byte-identical
# to the serial reference, and /metrics must expose the recovery
# evidence (see scripts/smoke_crash.sh).
smoke-crash:
	sh scripts/smoke_crash.sh

# CI smoke for out-of-core streaming: an ensemble whose loaded payload
# exceeds the streamed child's RSS budget must run to completion with
# `psa -max-frames` inside that budget (peak RSS sampled from /proc),
# byte-identical to the unconstrained run (see scripts/smoke_stream.sh).
smoke-stream:
	sh scripts/smoke_stream.sh

# Run the fuzz targets for FUZZTIME each (native `go test -fuzz`; seed
# corpora live in the packages' testdata/fuzz): the job-spec decoder and
# normalization, the job-result encoder against encoding/json, the job
# table against the replay of its journal after every step of a random
# scheduler workload, the WAL recovery scanner, the MDT decoders, the
# fleet wire decoders (input blobs, result payloads), a worker's
# execution of arbitrary leases and the coordinator's check of both
# unit kinds' results, then the differential tests of the Hausdorff
# exactness contract — every method, in memory and streamed,
# bit-identical to naive, and the same adversarial inputs through every
# engine and both schedules — the Leaflet partial-component combine
# against a BFS over pseudo-edge stars, and the Leaflet plan's dropped
# tiles and every engine's labels against a brute-force scan.
fuzz:
	$(GO) test -fuzz FuzzSpecNormalize -fuzztime $(FUZZTIME) -run '^$$' ./internal/jobs/
	$(GO) test -fuzz FuzzEncodeResult -fuzztime $(FUZZTIME) -run '^$$' ./internal/jobs/
	$(GO) test -fuzz FuzzJournalReplay -fuzztime $(FUZZTIME) -run '^$$' ./internal/jobs/
	$(GO) test -fuzz FuzzScan -fuzztime $(FUZZTIME) -run '^$$' ./internal/wal/
	$(GO) test -fuzz FuzzDecodeMDT -fuzztime $(FUZZTIME) -run '^$$' ./internal/traj/
	$(GO) test -fuzz FuzzWindowRoundTrip -fuzztime $(FUZZTIME) -run '^$$' ./internal/traj/
	$(GO) test -fuzz FuzzFleetWire -fuzztime $(FUZZTIME) -run '^$$' ./internal/fleet/
	$(GO) test -fuzz FuzzRecordLeafletResult -fuzztime $(FUZZTIME) -run '^$$' ./internal/fleet/
	$(GO) test -fuzz FuzzLease -fuzztime $(FUZZTIME) -run '^$$' ./internal/fleet/
	$(GO) test -fuzz FuzzHausdorffMethodsAgree -fuzztime $(FUZZTIME) -run '^$$' ./internal/hausdorff/
	$(GO) test -fuzz FuzzEnginesAgree -fuzztime $(FUZZTIME) -run '^$$' ./internal/engine/conformtest/
	$(GO) test -fuzz FuzzMergePartialSets -fuzztime $(FUZZTIME) -run '^$$' ./internal/leaflet/
	$(GO) test -fuzz FuzzLeafletPlanExact -fuzztime $(FUZZTIME) -run '^$$' ./internal/engine/conformtest/

# Dedicated race gate over the concurrency-heavy layers (the serving
# scheduler with its journal and crash-point tests, the WAL, the fleet
# coordinator/worker protocol, the streamed PSA cancel paths, and the
# trajectory layer, whose cached Packed and lazy digest share memory
# with the frames, the Leaflet tile bodies, whose pooled scratch
# the dask/rdd workers share, the staged-unit driver, the pilot and
# the block store, which TestTransportContract drives from both
# transports at once, and the Hausdorff kernels, whose concurrent
# streamed folds read one shared per-file sketch and recycle window
# slots through a pool, and the executors: engine's pool, dask's
# dependency scheduler, mpi's channel fabric with its abort path and
# rdd's partition pool), independent of the main test matrix.
# -race also turns on checkptr, which checks traj's in-place views stay
# inside one allocation. -shuffle=on randomizes test order so order
# dependence between tests is caught here, not on main.
race:
	$(GO) test -race -shuffle=on -count=1 ./internal/jobs/... ./internal/fleet/... ./internal/psa/... ./internal/wal/... ./internal/faultinject/... ./internal/traj/... ./internal/synth/... ./internal/leaflet/... ./internal/graph/... ./internal/stage/... ./internal/pilot/... ./internal/blockstore/... ./internal/hausdorff/... ./internal/engine/... ./internal/dask/... ./internal/mpi/... ./internal/rdd/...

# Soak the serving layers: five shuffled passes under -race, so a test
# that synchronises by sleeping instead of waiting on its condition
# flakes here rather than on main. Then five passes of every package
# with testing/quick properties (those calling proptest.Check) with a
# fresh seed per test and 10x each property's MaxCount; a failure
# prints the MDTASK_QUICK_SEED that replays it.
soak:
	$(GO) test -race -shuffle=on -count=5 ./internal/jobs/... ./internal/fleet/... ./internal/wal/...
	MDTASK_QUICK_SOAK=1 $(GO) test -count=5 $$(grep -rl --include='*_test.go' 'proptest\.Check' internal | xargs -n1 dirname | sort -u | sed 's|^|./|')

bench:
	$(GO) test -bench 'PSA|Hausdorff' -run '^$$' ./internal/bench/

# Record the PSA Hausdorff kernel counters (frame pairs and pruned
# fraction per kernel method, block-cache and streamed sections) to
# BENCH_psa.json. No time: benchmark/ measures it.
bench-json:
	MDTASK_BENCH_JSON=$(CURDIR)/BENCH_psa.json $(GO) test -count=1 ./internal/bench/ -run TestWriteBenchPSAJSON -v
	@cat $(CURDIR)/BENCH_psa.json

# Kernel-efficiency regression gate: record the current counters to a
# scratch path and compare against the committed BENCH_psa.json.
# Counters are deterministic (fixed synth seeds), so the tolerance only
# absorbs future intentional jitter; wall-clock never gates.
bench-gate:
	MDTASK_BENCH_JSON=$(BENCH_CURRENT) $(GO) test -count=1 ./internal/bench/ -run TestWriteBenchPSAJSON
	$(GO) run ./cmd/benchgate -baseline $(CURDIR)/BENCH_psa.json -current $(BENCH_CURRENT)

# The end-to-end benchmark of BENCHMARK.json: every workload once, the
# end-to-end metrics by name (benchmark/README.md; time is measured here
# and only here). BENCHMARK_ARGS passes flags through, e.g.
# `make benchmark BENCHMARK_ARGS="-workload psa-cold -seed 7 -out a.jsonl"`.
benchmark:
	bash benchmark/run.sh $(BENCHMARK_ARGS)

# Compare two sets of runs written with -out (A: the parent's, B: the
# change's); exits 1 on any out-of-bound worsening.
benchmark-compare:
	@[ -n "$(A)" ] && [ -n "$(B)" ] || { echo "usage: make benchmark-compare A=parent.jsonl B=change.jsonl" >&2; exit 2; }
	bash benchmark/run.sh -compare $(A) $(B)

# CI gate for the production load harness: mdserver (small queue,
# journal) + 2 healthy mdworkers run the full non-chaos scenario suite
# under cmd/mdload with every deterministic invariant gating (zero
# lost jobs, exact shed/submit accounting, Retry-After on 429s, 413 on
# oversized bodies, wal_records_skipped == 0, no goroutine leaks);
# then an MDTASK_FAULTS-armed worker takes the chaos scenario's first
# units alone, crashes at its fourth, and two fresh healthy workers
# finish it; the scenario must find evidence of the injected faults.
# The invariant reports land in BENCH_load.json / BENCH_load_chaos.json
# (see scripts/loadgate.sh); time is benchmark/'s to measure.
loadgate:
	sh scripts/loadgate.sh

# Documentation lint: every internal/cmd package must carry a
# substantive package doc comment stating its role and pipeline place
# (see scripts/docslint.sh). Gating in CI.
docslint:
	sh scripts/docslint.sh

# Executor-seam lint: internal/psa and internal/leaflet must not import
# an engine (rdd, dask, mpi), and only one package — the engine table in
# internal/jobs — may import all three (see scripts/enginelint.sh).
# Gating in CI.
enginelint:
	sh scripts/enginelint.sh

# Dead-API lint: every exported func and method under internal/ must
# be referenced by a non-test file of the module, cmd/, examples/ and
# benchmark/ included; a short allowlist in the script names the test
# references that must stay (see scripts/deadapi.sh). Gating in CI.
deadapi:
	sh scripts/deadapi.sh

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...
