package jobs

import (
	"errors"
	"testing"
	"time"

	"mdtask/internal/blockstore"
)

// waitTerminal polls a job to a terminal state.
func waitTerminal(t *testing.T, j *Job) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := j.Status()
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", st.ID, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSchedulerRunsJob(t *testing.T) {
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1})
	defer s.Close()
	job, err := s.Submit(validPSASpec())
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, job)
	if st.State != StateDone {
		t.Fatalf("job finished %s (error %q)", st.State, st.Error)
	}
	if st.Metrics.Tasks == 0 || st.Progress != 1 {
		t.Errorf("metrics/progress not reported: %+v", st)
	}
	res, _, _ := job.Result()
	if res == nil || res.Matrix == nil || res.Matrix.N != 3 {
		t.Fatalf("bad result %+v", res)
	}
}

func TestSchedulerCacheHit(t *testing.T) {
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1})
	defer s.Close()
	first, err := s.Submit(validPSASpec())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, first)
	tasksAfterFirst := s.Metrics().Engine.Tasks
	if tasksAfterFirst == 0 {
		t.Fatal("first run recorded no engine tasks")
	}

	second, err := s.Submit(validPSASpec())
	if err != nil {
		t.Fatal(err)
	}
	st := second.Status()
	if st.State != StateDone || !st.CacheHit {
		t.Fatalf("identical resubmission not served from cache: %+v", st)
	}
	if got := s.Metrics().Engine.Tasks; got != tasksAfterFirst {
		t.Errorf("cache hit re-ran engine tasks: %d -> %d", tasksAfterFirst, got)
	}
	r1, _, _ := first.Result()
	r2, _, _ := second.Result()
	if r1.Matrix != r2.Matrix {
		t.Error("cache hit did not share the stored result")
	}
	m := s.Metrics()
	if m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Errorf("cache accounting: %+v", m)
	}
	// The store holds the whole-job entry plus the run's block entries:
	// Count=3 at n1=1 is 6 triangular blocks.
	if m.CacheEntries != 7 {
		t.Errorf("store entries = %d, want 7 (1 job + 6 blocks)", m.CacheEntries)
	}

	// A different engine is a different submission: it must run.
	other := validPSASpec()
	other.Engine = EngineDask
	third, err := s.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, third); st.CacheHit {
		t.Error("different engine served from cache")
	}
}

// The kernel method is result-invariant — naive, early-break and pruned
// produce identical matrices — so resubmitting the same job with a
// different method (or the full-matrix schedule) must be served from the
// cache without re-running any engine tasks.
func TestSchedulerCacheHitAcrossMethods(t *testing.T) {
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1})
	defer s.Close()
	base := validPSASpec()
	base.Method = "naive"
	first, err := s.Submit(base)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, first)
	tasksAfterFirst := s.Metrics().Engine.Tasks
	r1, _, _ := first.Result()

	for _, mutate := range []func(*Spec){
		func(sp *Spec) { sp.Method = "early-break" },
		func(sp *Spec) { sp.Method = "pruned" },
		func(sp *Spec) { sp.Method = "pruned"; sp.FullMatrix = true },
	} {
		spec := validPSASpec()
		mutate(&spec)
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		st := job.Status()
		if st.State != StateDone || !st.CacheHit {
			t.Fatalf("method=%q full=%v resubmission not served from cache: %+v",
				spec.Method, spec.FullMatrix, st)
		}
		r2, _, _ := job.Result()
		if r1.Matrix != r2.Matrix {
			t.Errorf("method=%q: cache hit did not share the stored result", spec.Method)
		}
	}
	if got := s.Metrics().Engine.Tasks; got != tasksAfterFirst {
		t.Errorf("cache hits re-ran engine tasks: %d -> %d", tasksAfterFirst, got)
	}
	if m := s.Metrics(); m.CacheHits != 3 || m.CacheMisses != 1 || m.CacheEntries != 7 {
		t.Errorf("cache accounting: %+v", m)
	}
}

// Every engine's PSA runner must surface the kernel's frame-pair
// counters in its job metrics — and, through the scheduler aggregate, at
// /v1/metrics.
func TestJobMetricsCarryKernelCounters(t *testing.T) {
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1})
	defer s.Close()
	for i, eng := range Engines {
		spec := validPSASpec()
		spec.Engine = eng
		spec.Method = "pruned"
		spec.Synth.Seed = uint64(1000 + i) // distinct content: no cache hits
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		st := waitTerminal(t, job)
		if st.State != StateDone {
			t.Fatalf("%s: job finished %s (%s)", eng, st.State, st.Error)
		}
		m := st.Metrics
		if m.PairsEvaluated == 0 || m.PairsPruned == 0 {
			t.Errorf("%s: kernel counters missing from job metrics: %+v", eng, m)
		}
	}
	agg := s.Metrics().Engine
	if agg.PairsEvaluated == 0 || agg.PairsPruned == 0 {
		t.Errorf("kernel counters missing from service aggregate: %+v", agg)
	}
}

// blockingRegistry registers a psa/serial runner that parks until
// cancelled or released, for deterministic scheduling tests.
func blockingRegistry(started chan<- string, release <-chan struct{}) *Registry {
	reg := NewRegistry()
	must(reg.Register(RunnerName(AnalysisPSA, EngineSerial),
		func(rc *RunContext, spec Spec, in *Input) (*Result, error) {
			started <- spec.Engine
			for {
				select {
				case <-release:
					return &Result{Matrix: nil}, nil
				default:
				}
				if rc.Cancelled() {
					return nil, ErrCancelled
				}
				time.Sleep(time.Millisecond)
			}
		}))
	return reg
}

func TestSchedulerCancelRunningJob(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	s := NewScheduler(blockingRegistry(started, release), Options{Workers: 1})
	defer s.Close()
	spec := validPSASpec()
	spec.Engine = EngineSerial
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, ok := s.Cancel(job.ID()); !ok {
		t.Fatal("cancel of running job rejected")
	}
	st := waitTerminal(t, job)
	if st.State != StateCancelled {
		t.Fatalf("cancelled running job finished %s", st.State)
	}
	if res, _, _ := job.Result(); res != nil {
		t.Error("cancelled job published a result")
	}
	if s.Metrics().CacheEntries != 0 {
		t.Error("cancelled job reached the cache")
	}
}

func TestSchedulerCancelQueuedJobAndQueueBound(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	s := NewScheduler(blockingRegistry(started, release), Options{Workers: 1, QueueDepth: 1})
	spec := validPSASpec()
	spec.Engine = EngineSerial

	running, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker is now parked in the running job

	queued, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(spec); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit: got %v, want ErrQueueFull", err)
	}

	// A queued job cancels immediately, before ever running, and frees
	// its queue slot for a new submission on the spot.
	if _, ok := s.Cancel(queued.ID()); !ok {
		t.Fatal("cancel of queued job rejected")
	}
	if st := queued.Status(); st.State != StateCancelled {
		t.Fatalf("queued job is %s after cancel", st.State)
	}
	replacement, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("queue slot not freed by cancel: %v", err)
	}

	close(release)
	waitTerminal(t, running)
	waitTerminal(t, replacement)
	s.Close()
	if st := queued.Status(); st.Metrics.Tasks != 0 {
		t.Error("cancelled queued job ran anyway")
	}
	// Exactly the running job and the replacement started; the
	// cancelled queued job never did.
	<-started // the replacement's start event
	select {
	case eng := <-started:
		t.Errorf("cancelled queued job started on %s", eng)
	default:
	}
}

func TestSchedulerCancelMissingAndFinished(t *testing.T) {
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1})
	defer s.Close()
	if j, ok := s.Cancel("job-999999"); j != nil || ok {
		t.Error("cancel of unknown job succeeded")
	}
	job, err := s.Submit(validPSASpec())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	if _, ok := s.Cancel(job.ID()); ok {
		t.Error("cancel of finished job reported a change")
	}
}

func TestSchedulerSubmitValidation(t *testing.T) {
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1})
	defer s.Close()
	if _, err := s.Submit(Spec{}); err == nil {
		t.Error("empty spec accepted")
	}
	bad := validPSASpec()
	bad.Path, bad.Synth = "/nonexistent-dir", nil
	if _, err := s.Submit(bad); err == nil {
		t.Error("unresolvable input accepted")
	}
}

func TestSchedulerClosedSubmit(t *testing.T) {
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1})
	s.Close()
	if _, err := s.Submit(validPSASpec()); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: got %v", err)
	}
}

func TestSchedulerJobTableBounded(t *testing.T) {
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1, MaxJobs: 2})
	defer s.Close()
	var ids []string
	for i := 0; i < 4; i++ {
		spec := validPSASpec()
		spec.Synth.Seed = uint64(100 + i) // distinct content: no cache hits
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, job)
		ids = append(ids, job.ID())
	}
	if got := len(s.Jobs()); got > 2 {
		t.Errorf("job table holds %d records, want <= 2", got)
	}
	if _, ok := s.Get(ids[0]); ok {
		t.Error("oldest terminal job record not evicted")
	}
	if _, ok := s.Get(ids[3]); !ok {
		t.Error("newest job record evicted")
	}
}

// Whole-job entries live in the shared block store and are evicted by
// its byte budget: with a budget too small for two job results plus
// their block entries, the older job's entry goes first, so an
// identical resubmission of the newest job still hits while the oldest
// must rerun (possibly rebuilding from whatever block entries remain).
func TestJobEntryEvictionByByteBudget(t *testing.T) {
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1, BlockStore: blockstore.New(1)})
	defer s.Close()
	first, err := s.Submit(validPSASpec())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, first)
	// A 1-byte budget rejects every entry (each is larger than the whole
	// budget), so nothing is cached and resubmission is a miss.
	second, err := s.Submit(validPSASpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, second); st.CacheHit {
		t.Fatal("entry cached despite a budget smaller than any entry")
	}
	m := s.Metrics()
	// Zero-byte entries (the 1×1 diagonal blocks have no pairs) may
	// remain; anything with actual payload must have been refused.
	if m.BlockCache.Bytes != 0 {
		t.Errorf("store retained payload bytes over budget: %+v", m.BlockCache)
	}
	if m.CacheHits != 0 || m.CacheMisses != 2 {
		t.Errorf("cache accounting: hits=%d misses=%d", m.CacheHits, m.CacheMisses)
	}
}

// A dask Leaflet job records every graph node as a task — tiles and
// scatter — so its plan must count them too: progress (tasks ÷ planned)
// then climbs monotonically over the whole run and passes 0.9 only in
// the last tenth of the tasks.
func TestDaskLeafletProgressTracksTasks(t *testing.T) {
	for _, approach := range []string{"broadcast", "parallel-cc", "tree"} {
		t.Run(approach, func(t *testing.T) {
			s := NewScheduler(DefaultRegistry(), Options{Workers: 1})
			defer s.Close()
			job, err := s.Submit(Spec{
				Analysis: AnalysisLeaflet, Engine: EngineDask, Approach: approach,
				Parallelism: 2, Tasks: 64, Synth: &SynthSpec{Atoms: 6000, Seed: 5},
			})
			if err != nil {
				t.Fatal(err)
			}
			var samples []Status
			deadline := time.Now().Add(30 * time.Second)
			for {
				st := job.Status()
				samples = append(samples, st)
				if st.State.Terminal() {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("job stuck in %s", st.State)
				}
				time.Sleep(200 * time.Microsecond)
			}
			final := samples[len(samples)-1]
			if final.State != StateDone || final.Progress != 1 {
				t.Fatalf("job finished %s at progress %v (error %q)", final.State, final.Progress, final.Error)
			}
			if int64(final.TasksTotal) != final.Metrics.Tasks {
				t.Fatalf("planned %d tasks, ran %d", final.TasksTotal, final.Metrics.Tasks)
			}
			var last float64
			for _, st := range samples {
				if st.Progress < last {
					t.Fatalf("progress fell from %v to %v", last, st.Progress)
				}
				last = st.Progress
				if st.Progress > 0.9 && 10*st.TasksDone <= 9*final.Metrics.Tasks {
					t.Fatalf("progress %v with %d of %d tasks done", st.Progress, st.TasksDone, final.Metrics.Tasks)
				}
			}
		})
	}
}

// A staged engine plans only the units the block store cannot serve, so
// a delta resubmission — the base ensemble grown by one trajectory, one
// block per pair (the 10/5/128 table of conformtest) — reads 5 tasks in
// total, not the 15 of its whole schedule, and its progress climbs to 1
// without ever falling.
func TestStagedDeltaProgressCountsUnitsRun(t *testing.T) {
	spec := func(engine string, count int) Spec {
		return Spec{
			Analysis: AnalysisPSA, Engine: engine, Tasks: 64,
			Synth: &SynthSpec{Count: count, Atoms: 8, Frames: 4, Seed: 101},
		}
	}
	for _, engine := range []string{EngineFleet, EnginePilot} {
		t.Run(engine, func(t *testing.T) {
			s := NewScheduler(DefaultRegistry(), Options{Workers: 1})
			defer s.Close()
			base, err := s.Submit(spec(engine, 4))
			if err != nil {
				t.Fatal(err)
			}
			if fin := waitTerminal(t, base); fin.State != StateDone || fin.TasksTotal != 10 {
				t.Fatalf("base job finished %s with %d tasks planned (error %q), want done with 10", fin.State, fin.TasksTotal, fin.Error)
			}
			delta, err := s.Submit(spec(engine, 5))
			if err != nil {
				t.Fatal(err)
			}
			var last float64
			deadline := time.Now().Add(30 * time.Second)
			for {
				st := delta.Status()
				if st.Progress < last {
					t.Fatalf("progress fell from %v to %v", last, st.Progress)
				}
				last = st.Progress
				if st.State.Terminal() {
					if st.State != StateDone || st.Progress != 1 {
						t.Fatalf("delta job finished %s at progress %v (error %q)", st.State, st.Progress, st.Error)
					}
					if st.TasksTotal != 5 || st.TasksDone != 5 {
						t.Fatalf("delta job reads tasks_total %d, tasks %d; want 5 and 5", st.TasksTotal, st.TasksDone)
					}
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("delta job stuck in %s", st.State)
				}
				time.Sleep(200 * time.Microsecond)
			}
		})
	}
}
