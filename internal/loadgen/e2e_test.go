package loadgen

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mdtask/internal/blockstore"
	"mdtask/internal/faultinject"
	"mdtask/internal/fleet"
	"mdtask/internal/jobs"
	"mdtask/internal/obs"
)

// startTestServer wires the same stack cmd/mdserver serves — scheduler
// with a shared block store and a job journal, fleet coordinator,
// Prometheus registry — behind an httptest listener, plus nWorkers
// in-process fleet workers.
func startTestServer(t *testing.T, queueDepth, nWorkers int) (*httptest.Server, func()) {
	t.Helper()
	store := blockstore.New(0)
	ob := obs.New("mdserver-test")
	obs.RegisterRuntimeMetrics(ob.Metrics)
	journal, _, err := jobs.OpenWALStore(jobs.WALStoreOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("opening job journal: %v", err)
	}
	journal.RegisterMetrics(ob.Metrics)
	coord := fleet.NewCoordinator(fleet.Options{
		BlockStore:   store,
		Tracer:       ob.Tracer,
		LeaseTTL:     30 * time.Second,
		HeartbeatTTL: 30 * time.Second,
	})
	sched := jobs.NewScheduler(jobs.RegistryWithFleet(coord), jobs.Options{
		Workers:    2,
		QueueDepth: queueDepth,
		BlockStore: store,
		Obs:        ob,
		Journal:    journal,
	})
	fh := coord.Handler()
	mux := http.NewServeMux()
	mux.Handle("/v1/workers", fh)
	mux.Handle("/v1/workers/", fh)
	mux.Handle("/v1/fleet", fh)
	mux.Handle("/v1/fleet/", fh)
	mux.Handle("/metrics", ob.Metrics.Handler())
	mux.Handle("/", jobs.NewServerWith(sched, jobs.ServerOptions{MaxSpecBytes: 64 << 10}))
	srv := httptest.NewServer(obs.Middleware(mux, ob, nil, "mdserver-test"))

	var workers []*fleet.Worker
	for i := 0; i < nWorkers; i++ {
		w, err := fleet.StartWorker(fleet.WorkerOptions{Coordinator: srv.URL, Name: "load-test-worker"})
		if err != nil {
			srv.Close()
			t.Fatalf("starting fleet worker: %v", err)
		}
		workers = append(workers, w)
	}
	return srv, func() {
		for _, w := range workers {
			w.Close()
		}
		srv.Close()
		sched.Close()
		coord.Close()
		journal.Close()
	}
}

func requireScenario(t *testing.T, rep *Report, name string) ScenarioReport {
	t.Helper()
	for _, sc := range rep.Scenarios {
		if sc.Scenario == name {
			return sc
		}
	}
	t.Fatalf("report has no scenario %q", name)
	return ScenarioReport{}
}

// TestRunSuiteEndToEnd drives the non-chaos scenarios against an
// in-process mdserver stack with live fleet workers and requires every
// deterministic invariant to hold.
func TestRunSuiteEndToEnd(t *testing.T) {
	srv, stop := startTestServer(t, 2, 2)
	defer stop()

	cfg := Config{
		Server:         srv.URL,
		Jobs:           6,
		Concurrency:    4,
		Seed:           42,
		OversizedBytes: 128 << 10, // above the test server's 64 KiB spec bound
		RequireWorkers: true,
		ExpectShedding: true, // queue depth 2 < concurrency 4
		Logf:           t.Logf,
	}
	names := []string{"resubmit-storm", "delta-append", "fleet-fanout",
		"cancel-storm", "stream-mix", "overload"}
	rep, err := Run(cfg, names)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Scenarios) != len(names) {
		t.Fatalf("got %d scenario reports, want %d", len(rep.Scenarios), len(names))
	}
	for _, sc := range rep.Scenarios {
		if sc.Skipped {
			t.Errorf("scenario %s unexpectedly skipped: %s", sc.Scenario, sc.SkipReason)
		}
		for _, inv := range sc.Invariants {
			if !inv.OK {
				t.Errorf("scenario %s invariant %s failed: %s", sc.Scenario, inv.Name, inv.Detail)
			}
		}
	}
	if !rep.OK {
		t.Fatal("report marked not OK")
	}

	// Spot-check the modes actually exercised what they claim.
	if sc := requireScenario(t, rep, "resubmit-storm"); sc.CacheHits == 0 {
		t.Error("resubmit-storm produced no cache hits")
	}
	if sc := requireScenario(t, rep, "cancel-storm"); sc.Cancelled == 0 {
		t.Error("cancel-storm cancelled nothing")
	}
	ov := requireScenario(t, rep, "overload")
	if ov.Shed == 0 {
		t.Error("overload provoked no 429s despite queue depth 2")
	}
	if ov.Oversized != 1 {
		t.Errorf("overload oversized_413 = %d, want 1", ov.Oversized)
	}
}

// TestRunChaosScenario arms fault injection in-process (the loadgate
// gate arms it via MDTASK_FAULTS on a worker process) and requires
// the chaos gate to find evidence of the faults: failure nacks and
// requeues, with every job still completing.
func TestRunChaosScenario(t *testing.T) {
	if err := faultinject.Activate("fleet.unit.execute=error@3,fleet.unit.execute=sleep:50ms@2"); err != nil {
		t.Fatalf("arming faults: %v", err)
	}
	defer faultinject.Deactivate()

	srv, stop := startTestServer(t, 8, 2)
	defer stop()

	rep, err := Run(Config{
		Server:         srv.URL,
		Jobs:           4,
		Concurrency:    2,
		Seed:           7,
		Chaos:          true,
		RequireWorkers: true,
		Logf:           t.Logf,
	}, []string{"chaos"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sc := requireScenario(t, rep, "chaos")
	if sc.Skipped {
		t.Fatalf("chaos skipped: %s", sc.SkipReason)
	}
	for _, inv := range sc.Invariants {
		if !inv.OK {
			t.Errorf("chaos invariant %s failed: %s", inv.Name, inv.Detail)
		}
	}
	if !rep.OK {
		t.Fatal("chaos report marked not OK")
	}
}

// TestRunUnknownScenario and the skip path are cheap API checks.
func TestRunUnknownScenario(t *testing.T) {
	if _, err := Run(Config{Server: "http://127.0.0.1:1"}, []string{"no-such-mode"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestFleetScenarioSkipsWithoutWorkers(t *testing.T) {
	srv, stop := startTestServer(t, 8, 0)
	defer stop()
	rep, err := Run(Config{Server: srv.URL, Jobs: 2, Concurrency: 2, Seed: 3, Logf: t.Logf},
		[]string{"fleet-fanout"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sc := requireScenario(t, rep, "fleet-fanout")
	if !sc.Skipped {
		t.Fatal("fleet-fanout should skip with no workers registered")
	}
	if !rep.OK {
		t.Fatal("a skipped scenario must not fail the report")
	}
}

// TestSmokeGateChecks runs the smoke-serve and smoke-cache gates'
// checks against a fresh in-process server each, so a regression of
// the block-reuse story (10 hits, 5 misses, 128 pairs) fails go test,
// not only the live-process gate.
func TestSmokeGateChecks(t *testing.T) {
	for _, name := range []string{"smoke-serve", "smoke-cache"} {
		t.Run(name, func(t *testing.T) {
			srv, stop := startTestServer(t, 8, 0)
			defer stop()
			rep, err := Run(Config{Server: srv.URL, Seed: 1, Logf: t.Logf}, []string{name})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			sc := requireScenario(t, rep, name)
			for _, inv := range sc.Invariants {
				if !inv.OK {
					t.Errorf("invariant %s failed: %s", inv.Name, inv.Detail)
				}
			}
			if n := len(sc.Invariants); n < 9 {
				t.Errorf("%d invariants checked, want the gate's own besides the shared ones", n)
			}
		})
	}
}

// TestGatesStayOutOfTheSuite: a gate that boots its own processes is
// neither part of "all" nor runnable against a given server.
func TestGatesStayOutOfTheSuite(t *testing.T) {
	list, err := resolve([]string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range list {
		if sc.Boots() {
			t.Errorf("gate %s in the load suite", sc.Name)
		}
	}
	if _, err := Run(Config{Server: "http://127.0.0.1:1"}, []string{"smoke-crash"}); err == nil {
		t.Fatal("a boot-only gate ran against a given server")
	}
}
