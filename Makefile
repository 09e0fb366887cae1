GO ?= go
SERVE_ADDR ?= :8077
BENCH_CURRENT ?= /tmp/mdtask-bench-current.json
FUZZTIME ?= 10s

.PHONY: build test bench bench-json bench-gate benchmark benchmark-compare lint fmt vet serve smoke-serve smoke-fleet smoke-stream smoke-cache smoke-obs smoke-crash fuzz race soak loadgate

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Run the analysis job server (cmd/mdserver) in the foreground.
serve:
	$(GO) run ./cmd/mdserver -addr $(SERVE_ADDR)

# The live-server gates are cmd/mdload scenarios named after their
# targets (internal/loadgen/gates.go): each recipe builds mdserver,
# mdworker and mdload into one scratch dir and runs `mdload -scenario
# <target> -gate`, which starts the processes from that dir on
# ephemeral loopback ports (so gates run side by side under make -j),
# kills and restarts them on cue, checks named invariants, reaps every
# child on every exit path and prints their logs on failure.

# smoke-serve: a fresh mdserver is healthy and runs a tiny synth PSA job
# to done with a 200 result.
# smoke-cache: a synth PSA job resubmitted grown by one trajectory
# recomputes only the new row/column blocks — 10 block hits, 5 misses
# and exactly the new trajectory's 128 frame pairs, and service-wide 10
# hits, 17 entries and bytes saved.
# smoke-fleet: mdserver + 2 mdworkers, one SIGKILLed while it holds a
# lease; the fleet job must finish (requeue path) with a matrix
# byte-equal to the serial engine's, computed on a second, cold server.
# smoke-obs: mdserver + 2 mdworkers with /metrics listeners; every
# exposition must parse, the POST /v1/jobs counters must equal the
# submissions, and the fleet job's trace must span both processes with
# every worker kernel span under a coordinator lease span.
# smoke-crash: mdserver with a -data-dir journal is SIGKILLed mid fleet
# job and restarted on the same address and directory; zero jobs lost,
# the recovered job matches the serial reference, and /metrics shows
# jobs_recovered >= 1, wal_records_replayed >= 1, wal_records_skipped 0.
# loadgate: mdserver (queue of 4, below the suite's 8 clients, and a
# journal) + 2 healthy mdworkers run the non-chaos scenario suite with
# every deterministic invariant gating (zero lost jobs, exact
# shed/submit accounting, Retry-After on 429s, 413 on oversized bodies,
# wal_records_skipped == 0, no goroutine leaks); then an
# MDTASK_FAULTS-armed worker takes the chaos scenario's first units
# alone, must exit 137 at its fourth, and two fresh healthy workers
# finish it; the scenario must find evidence of the injected faults and
# the coordinator a lost worker. Its invariant reports land in
# BENCH_load.json / BENCH_load_chaos.json (docs/load.md); time is
# benchmark/'s to measure.
smoke-serve smoke-cache smoke-fleet smoke-obs smoke-crash loadgate:
	@bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT INT TERM HUP; \
	$(GO) build -o $$bin/ ./cmd/mdserver ./cmd/mdworker ./cmd/mdload && \
	$$bin/mdload -gate -scenario $@ $(if $(filter loadgate,$@),-json BENCH_load.json)

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
# rdd's partition pool, and the tracer, whose one span buffer every
# goroutine of mdserver and mdworker records into and reads from),
# independent of the main test matrix.
# -race also turns on checkptr, which checks traj's in-place views stay
# inside one allocation. -shuffle=on randomizes test order so order
# dependence between tests is caught here, not on main.
race:
	$(GO) test -race -shuffle=on -count=1 ./internal/jobs/... ./internal/fleet/... ./internal/psa/... ./internal/wal/... ./internal/faultinject/... ./internal/traj/... ./internal/synth/... ./internal/leaflet/... ./internal/graph/... ./internal/stage/... ./internal/pilot/... ./internal/blockstore/... ./internal/hausdorff/... ./internal/engine/... ./internal/dask/... ./internal/mpi/... ./internal/rdd/... ./internal/obs/...

# Soak the serving layers: five shuffled passes under -race, so a test
# that synchronises by sleeping instead of waiting on its condition
# flakes here rather than on main. Then five passes of every package
# with testing/quick properties (those whose tests import
# internal/proptest, as `go list` reports) with a fresh seed per test
# and 10x each property's MaxCount; a failure prints the
# MDTASK_QUICK_SEED that replays it.
soak:
	$(GO) test -race -shuffle=on -count=5 ./internal/jobs/... ./internal/fleet/... ./internal/wal/...
	MDTASK_QUICK_SOAK=1 $(GO) test -count=5 $$($(GO) list -f '{{.ImportPath}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./internal/... | grep -E ' mdtask/internal/proptest( |$$)' | cut -d' ' -f1)

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

# Static check (cmd/mdlint): one type-checked load of the module and
# benchmark/, then three rules. Dead API: every exported func, method,
# var, const and type of a non-main package has a non-test use; the few
# test-shared oracles that stay are in the allowlist table in
# cmd/mdlint/main.go, one reason each, and a stale entry fails. Executor
# seam: internal/psa and internal/leaflet import no engine (rdd, dask,
# mpi), they and internal/stage do not import internal/obs, and only the
# engine table in internal/jobs imports all three engines. Package docs:
# every internal/cmd package opens with a doc comment of two lines or
# more. Gating in CI.
lint:
	$(GO) run ./cmd/mdlint

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...
