package jobs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mdtask/internal/engine"
	"mdtask/internal/leaflet"
	"mdtask/internal/obs"
)

// awaitDone polls a job to a terminal state.
func awaitDone(t *testing.T, job *Job) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := job.Status()
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", job.ID(), st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// spansByName indexes a trace for assertions.
func spansByName(spans []obs.WireSpan) map[string][]obs.WireSpan {
	out := make(map[string][]obs.WireSpan)
	for _, ws := range spans {
		out[ws.Name] = append(out[ws.Name], ws)
	}
	return out
}

// The end-to-end tracing contract of a fleet job: one trace covers the
// scheduler's lifecycle spans, the coordinator's fleet spans, and the
// worker-side kernel spans shipped back over the wire protocol, with
// every kernel span parented under the lease that granted its unit.
func TestFleetJobEndToEndTrace(t *testing.T) {
	ob := obs.New("mdserver")
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1, Obs: ob})
	defer s.Close()

	job, err := s.Submit(Spec{
		Analysis:    AnalysisPSA,
		Engine:      EngineFleet,
		Parallelism: 2,
		Method:      "naive",
		Synth:       &SynthSpec{Count: 3, Atoms: 8, Frames: 4, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := awaitDone(t, job)
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.TraceID == "" {
		t.Fatal("done job has no trace id in its status")
	}
	trace := job.TraceID()
	if trace.String() != st.TraceID {
		t.Fatalf("Status trace id %s != Job.TraceID %s", st.TraceID, trace)
	}

	spans, dropped := ob.Tracer.Spans(trace)
	if dropped != 0 {
		t.Fatalf("%d spans dropped", dropped)
	}
	byName := spansByName(spans)
	for _, want := range []string{
		"job", "queue.wait", "run", "engine.fleet",
		"fleet.job", "fleet.lease", "fleet.record", "worker.kernel",
	} {
		if len(byName[want]) == 0 {
			var names []string
			for n := range byName {
				names = append(names, n)
			}
			t.Fatalf("trace missing %q spans; have %v", want, names)
		}
	}
	// Every span shares the job's trace id.
	for _, ws := range spans {
		if ws.Trace != trace.String() {
			t.Fatalf("span %q is in trace %s, want %s", ws.Name, ws.Trace, trace)
		}
	}
	// Each worker kernel span nests under one of the lease spans, even
	// though it crossed the wire as a traceparent header and came back
	// inside a unit result.
	leases := make(map[string]bool)
	for _, ws := range byName["fleet.lease"] {
		leases[ws.Span] = true
	}
	for _, k := range byName["worker.kernel"] {
		if !leases[k.Parent] {
			t.Fatalf("worker.kernel span %s parented under %q, not a lease span", k.Span, k.Parent)
		}
		if k.Proc == "mdserver" {
			t.Fatal("worker.kernel span claims the coordinator process")
		}
	}
	// Completed leases carry their outcome.
	for _, l := range byName["fleet.lease"] {
		if l.Attrs["outcome"] == "" {
			t.Fatalf("lease span %s has no outcome attr", l.Span)
		}
	}

	// The exported Chrome trace is valid JSON and names both processes.
	var file struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(obs.ChromeTrace(spans), &file); err != nil {
		t.Fatalf("Chrome export: %v", err)
	}
	procs := make(map[string]bool)
	for _, ev := range file.TraceEvents {
		if ev.Ph == "M" {
			procs[ev.Args["name"].(string)] = true
		}
	}
	if !procs["mdserver"] {
		t.Fatalf("export lacks the coordinator process row: %v", procs)
	}
	workerProc := false
	for p := range procs {
		if strings.HasPrefix(p, "local-") {
			workerProc = true
		}
	}
	if !workerProc {
		t.Fatalf("export lacks a worker process row: %v", procs)
	}
}

// An in-process engine's trace nests block spans under the engine
// stage, and cache.do spans under the blocks.
func TestInProcessEngineTrace(t *testing.T) {
	ob := obs.New("mdserver")
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1, Obs: ob})
	defer s.Close()

	job, err := s.Submit(Spec{
		Analysis: AnalysisPSA,
		Engine:   EngineDask,
		Method:   "naive",
		Synth:    &SynthSpec{Count: 3, Atoms: 8, Frames: 4, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := awaitDone(t, job); st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	spans, _ := ob.Tracer.Spans(job.TraceID())
	byName := spansByName(spans)
	for _, want := range []string{"job", "queue.wait", "run", "engine.dask", "psa.block", "cache.do"} {
		if len(byName[want]) == 0 {
			t.Fatalf("trace missing %q spans", want)
		}
	}
	// psa.block spans parent under engine.dask.
	eng := byName["engine.dask"][0]
	for _, b := range byName["psa.block"] {
		if b.Parent != eng.Span {
			t.Fatalf("psa.block parented under %q, want engine span %q", b.Parent, eng.Span)
		}
	}
}

// A whole-job cache hit completes at submission with a (tiny) trace of
// its own, and the second submission's metrics count the hit.
func TestCacheHitJobTrace(t *testing.T) {
	ob := obs.New("mdserver")
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1, Obs: ob})
	defer s.Close()

	spec := Spec{
		Analysis: AnalysisPSA,
		Engine:   EngineSerial,
		Method:   "naive",
		Synth:    &SynthSpec{Count: 2, Atoms: 8, Frames: 4, Seed: 3},
	}
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, first)
	second, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := awaitDone(t, second)
	if !st.CacheHit {
		t.Fatal("second submission missed the job cache")
	}
	spans, _ := ob.Tracer.Spans(second.TraceID())
	if len(spans) != 1 || spans[0].Name != "job" || spans[0].Attrs["cache_hit"] != "true" {
		t.Fatalf("cache-hit trace = %+v, want a single job span with cache_hit", spans)
	}
}

// GET /v1/jobs/{id}/trace serves the Chrome export over the API, and
// 404s for unknown jobs and untraced jobs.
func TestTraceEndpoint(t *testing.T) {
	ob := obs.New("mdserver")
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1, Obs: ob})
	defer s.Close()
	h := NewServerWith(s, ServerOptions{})

	job, err := s.Submit(Spec{
		Analysis: AnalysisPSA,
		Engine:   EngineSerial,
		Method:   "naive",
		Synth:    &SynthSpec{Count: 2, Atoms: 8, Frames: 4, Seed: 21},
	})
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, job)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+job.ID()+"/trace", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("trace endpoint: %d %s", rec.Code, rec.Body.String())
	}
	var file struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &file); err != nil {
		t.Fatalf("trace body: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("trace export has no events")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/job-999999/trace", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job trace: %d", rec.Code)
	}
}

// With tracing disabled, jobs run normally, statuses carry no trace
// id, and the metrics registry still fills.
func TestTracingDisabled(t *testing.T) {
	ob := obs.NoTrace()
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1, Obs: ob})
	defer s.Close()

	job, err := s.Submit(Spec{
		Analysis: AnalysisPSA,
		Engine:   EngineSerial,
		Method:   "naive",
		Synth:    &SynthSpec{Count: 2, Atoms: 8, Frames: 4, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := awaitDone(t, job)
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.TraceID != "" {
		t.Fatalf("trace id %q reported with tracing off", st.TraceID)
	}
	var b strings.Builder
	if err := ob.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mdtask_jobs_submitted_total 1",
		`mdtask_jobs_completed_total{state="done"} 1`,
		"mdtask_job_queue_wait_seconds_count 1",
		"mdtask_block_kernel_seconds_count",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, b.String())
		}
	}
}

// Every Leaflet tile body runs through one instrumented kernel call,
// on an executor (dask, serial) or as a staged unit (pilot): a traced
// job at the engine conformance point (2000 atoms, 16 tasks) records one
// leaflet.tile span and one block kernel observation per tile of its
// plan for every tiled approach: the fine grid's 11 live tiles, or the
// tree approach's cost plan for the spec's workers (5 tiles for the
// serial engine's one, 8 for two).
func TestLeafletTilesObserveKernelHistogram(t *testing.T) {
	ob := obs.New("mdserver")
	hist := engine.KernelHistogram(ob.Metrics)
	reg := DefaultRegistry()
	for _, eng := range []string{EngineDask, EnginePilot, EngineSerial} {
		for _, approach := range []string{"task2d", "parallel-cc", "tree"} {
			t.Run(eng+"/"+approach, func(t *testing.T) {
				spec, in, err := Resolve(Spec{Analysis: AnalysisLeaflet, Engine: eng, Approach: approach,
					Parallelism: 2, Tasks: 16, Synth: &SynthSpec{Atoms: 2000, Seed: 31}})
				if err != nil {
					t.Fatal(err)
				}
				runner, ok := reg.Lookup(RunnerName(spec.Analysis, spec.Engine))
				if !ok {
					t.Fatalf("no %s runner", eng)
				}
				root := ob.Tracer.StartRoot("run")
				rc := NewRunContext()
				rc.SetObs(ob, root.Context())
				before := hist.Snapshot().Count
				res, err := runner(rc, spec, in)
				root.End()
				if err != nil {
					t.Fatal(err)
				}
				spans, _ := ob.Tracer.Spans(root.Context().Trace)
				observed, traced := hist.Snapshot().Count-before, len(spansByName(spans)["leaflet.tile"])
				want := 11
				if approach == "tree" {
					want = len(leaflet.Tiles(in.Coords, spec.Cutoff, spec.Tasks, spec.leafletWorkers(), true))
				}
				if tiles := res.Leaflet.Stats.Tasks; tiles != want || observed != int64(want) || traced != want {
					t.Errorf("%d tiles: histogram rose by %d, %d leaflet.tile spans; want %d each",
						tiles, observed, traced, want)
				}
			})
		}
	}
}
