package jobs

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mdtask/internal/fleet"
	"mdtask/internal/linalg"
	"mdtask/internal/proptest"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// TestBackingPoolBounds: take returns a backing of exactly the length
// asked, from the newest input given back that has one, and a length
// no kept backing has empties the free list; the free list keeps what
// is left of the last keep inputs, dropping the oldest; an input's
// backings of another length than its first are not kept, and a pool
// that keeps nothing (or a nil one) always allocates.
func TestBackingPoolBounds(t *testing.T) {
	p := backingPool{keep: 2}
	a, b, c := p.take(10), p.take(10), p.take(10)
	p.give([][]linalg.Vec3{a})
	p.give([][]linalg.Vec3{b, c})
	if got := p.take(10); &got[0] != &c[0] {
		t.Fatal("take(10) did not come from the newest input given back")
	}
	if got := p.take(11); len(got) != 11 || &got[0] == &a[0] || &got[0] == &b[0] {
		t.Fatal("take(11) reused a backing of another length")
	}
	if len(p.free) != 0 {
		t.Fatalf("a length no kept backing has left %d inputs on the free list", len(p.free))
	}
	if p.reused.Load() != 1 || p.allocated.Load() != 4 {
		t.Fatalf("reused %d, allocated %d; want 1 and 4", p.reused.Load(), p.allocated.Load())
	}

	p = backingPool{keep: 2}
	first, second, third := make([]linalg.Vec3, 1), make([]linalg.Vec3, 2), make([]linalg.Vec3, 2)
	odd := make([]linalg.Vec3, 4)
	p.give([][]linalg.Vec3{first})
	p.give([][]linalg.Vec3{second, odd, nil})
	p.give([][]linalg.Vec3{third})
	if len(p.free) != 2 || len(p.free[0].bs) != 1 || &p.free[0].bs[0][0] != &second[0] {
		t.Fatalf("%d inputs kept, or the oldest was not the one dropped, or a backing of another length was kept", len(p.free))
	}
	if &p.take(2)[0] != &third[0] || &p.take(2)[0] != &second[0] || len(p.free) != 0 {
		t.Fatal("the kept inputs' backings were not reused newest first")
	}

	for _, none := range []*backingPool{{}, nil} {
		b := none.take(5)
		none.give([][]linalg.Vec3{b})
		if &none.take(5)[0] == &b[0] {
			t.Fatal("a pool that keeps nothing reused a backing")
		}
	}
}

// TestDirtyPoolStagesFreshBytes resolves the synth specs
// TestStagingGolden pins through a pool whose backings hold NaN, and
// then through one holding the previous resolution's coordinates: every
// member is written into reused memory and the content is what a fresh
// resolution generates.
func TestDirtyPoolStagesFreshBytes(t *testing.T) {
	for _, spec := range []Spec{
		{Analysis: AnalysisPSA, Synth: &SynthSpec{}},
		{Analysis: AnalysisPSA, Engine: EngineDask, Method: "pruned",
			Synth: &SynthSpec{Count: 8, Atoms: 1024, Frames: 64, Seed: 1000}},
		{Analysis: AnalysisLeaflet, Synth: &SynthSpec{}},
	} {
		norm, err := spec.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := ResolveInput(norm)
		if err != nil {
			t.Fatal(err)
		}
		want := generatedContent(t, fresh)
		g := norm.Synth
		members, size := g.Count, g.Atoms*g.Frames
		if norm.Analysis == AnalysisLeaflet {
			members, size = 1, g.Atoms
		}
		p := backingPool{keep: 1}
		nan := make([][]linalg.Vec3, members)
		for m := range nan {
			nan[m] = make([]linalg.Vec3, size)
			for i := range nan[m] {
				nan[m][i] = linalg.Vec3{math.NaN(), math.NaN(), math.NaN()}
			}
		}
		p.give(nan)
		for _, dirt := range []string{"NaN", "stale"} {
			if dirt == "stale" {
				stale := norm
				stale.Synth = &SynthSpec{Count: g.Count, Atoms: g.Atoms, Frames: g.Frames, Seed: g.Seed + 1}
				in, err := resolveInput(stale, &p)
				if err != nil {
					t.Fatal(err)
				}
				in.release()
			}
			before := p.reused.Load()
			in, err := resolveInput(norm, &p)
			if err != nil {
				t.Fatal(err)
			}
			if got := p.reused.Load() - before; got != int64(members) {
				t.Fatalf("%s %+v: %d of %d members reused a %s backing", norm.Analysis, *g, got, members, dirt)
			}
			if got := generatedContent(t, in); got != want {
				t.Fatalf("%s %+v over %s backings: content %s, fresh %s", norm.Analysis, *g, dirt, got, want)
			}
			in.release()
		}
	}
}

// TestSynthDigestComposesMembers: the digest Submit keys a synth spec
// by before generating anything is the one the generated input's
// members' refs compose, for any small shape, and a membrane's is its
// generated input's recipe.
func TestSynthDigestComposesMembers(t *testing.T) {
	proptest.Check(t, func(count, atoms, frames uint8, seed uint64) bool {
		norm, err := Spec{Analysis: AnalysisPSA, Synth: &SynthSpec{
			Count: 1 + int(count%5), Atoms: 1 + int(atoms%9), Frames: 1 + int(frames%5), Seed: seed}}.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		in, err := ResolveInput(norm)
		if err != nil {
			t.Fatal(err)
		}
		composed, err := refsDigest(in.Refs)
		if err != nil {
			t.Fatal(err)
		}
		d, ok := synthDigest(norm)
		return ok && d == composed
	}, &quick.Config{MaxCount: 30})
	norm, err := Spec{Analysis: AnalysisLeaflet, Synth: &SynthSpec{Atoms: 100, Seed: 3}}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	in, err := ResolveInput(norm)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := synthDigest(norm); d != in.recipe {
		t.Fatalf("membrane: synthDigest %s, resolved %s", d, in.recipe)
	}
	if _, ok := synthDigest(Spec{Analysis: AnalysisPSA, Path: "x"}); ok {
		t.Fatal("a file input has a recipe digest")
	}
}

// TestWholeJobHitGeneratesNothing: a resubmitted synth job is answered
// from the whole-job store entry without generating a member — the
// scheduler's backing counters do not move — on both analyses.
func TestWholeJobHitGeneratesNothing(t *testing.T) {
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1})
	defer s.Close()
	generated := func() int64 { return s.backings.reused.Load() + s.backings.allocated.Load() }
	for _, spec := range []Spec{
		{Analysis: AnalysisPSA, Engine: EngineSerial, Synth: &SynthSpec{Count: 3, Atoms: 8, Frames: 4, Seed: 5}},
		{Analysis: AnalysisLeaflet, Engine: EngineSerial, Synth: &SynthSpec{Atoms: 64, Seed: 5}},
	} {
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, job); st.State != StateDone {
			t.Fatalf("%s: first job finished %s (%s)", spec.Analysis, st.State, st.Error)
		}
		before := generated()
		if before == 0 {
			t.Fatalf("%s: the first job generated nothing", spec.Analysis)
		}
		hit, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := hit.Status(); st.State != StateDone || !st.CacheHit {
			t.Fatalf("%s: resubmission %s, cache_hit %v", spec.Analysis, st.State, st.CacheHit)
		}
		if after := generated(); after != before {
			t.Fatalf("%s: a whole-job hit generated %d members", spec.Analysis, after-before)
		}
	}
}

// TestReleasedBackingHasNoReaders cancels a running job, then submits
// one of the same shape, which the scheduler generates into the
// cancelled job's memory. Under -race any read of that memory the first
// job still had in flight is reported against the second job's writes.
// On dask the runner returns only once its tasks have. On the fleet,
// readers fetch the first job's input blobs throughout its cancel, as a
// worker whose lease is revoked mid-fetch would, and the release waits
// for the reads that found the job (fleet.Coordinator.Drop). Either
// way, the second job's result is what fresh memory gives.
func TestReleasedBackingHasNoReaders(t *testing.T) {
	shape := func(seed uint64) *SynthSpec { return &SynthSpec{Count: 4, Atoms: 1024, Frames: 256, Seed: seed} }
	// reuse submits the second job and checks that every member reused
	// the first job's memory and that the result matches a fresh run.
	reuse := func(t *testing.T, s *Scheduler) {
		t.Helper()
		spec := Spec{Analysis: AnalysisPSA, Engine: EngineDask, Parallelism: 2, Method: "pruned", Synth: shape(2)}
		before := s.backings.reused.Load()
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.backings.reused.Load() - before; got != int64(spec.Synth.Count) {
			t.Fatalf("%d of %d members reused the cancelled job's memory", got, spec.Synth.Count)
		}
		st := waitTerminal(t, job)
		if st.State != StateDone {
			t.Fatalf("second job finished %s (%s)", st.State, st.Error)
		}
		_, want, _, err := RunLocal(DefaultRegistry(), spec)
		if err != nil {
			t.Fatal(err)
		}
		res, _, _ := job.Result()
		got, err := resultDigest(res)
		if err != nil {
			t.Fatal(err)
		}
		if wantDigest, _ := resultDigest(want); got != wantDigest {
			t.Fatal("a job generated into reused memory gave another result than fresh memory")
		}
	}
	cancelRunning := func(t *testing.T, s *Scheduler, job *Job) {
		t.Helper()
		if _, ok := s.Cancel(job.ID()); !ok {
			t.Fatal("cancel did not reach the job")
		}
		if st := waitTerminal(t, job); st.State != StateCancelled {
			t.Fatalf("first job finished %s, want cancelled", st.State)
		}
	}

	t.Run("dask", func(t *testing.T) {
		s := NewScheduler(DefaultRegistry(), Options{Workers: 1})
		defer s.Close()
		// Ten naive blocks of 256² frame pairs each: once the first has
		// run, the cancel lands while others are running.
		job, err := s.Submit(Spec{Analysis: AnalysisPSA, Engine: EngineDask, Parallelism: 2,
			Tasks: 16, Method: "naive", Synth: shape(1)})
		if err != nil {
			t.Fatal(err)
		}
		for st := job.Status(); st.TasksDone == 0 && !st.State.Terminal(); st = job.Status() {
			time.Sleep(time.Millisecond)
		}
		cancelRunning(t, s, job)
		reuse(t, s)
	})

	t.Run("fleet", func(t *testing.T) {
		c := fleet.NewCoordinator(fleet.LocalOptions())
		defer c.Close()
		h := c.Handler()
		call := func(method, path string) (int, string) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
			return rec.Code, rec.Body.String()
		}
		s := NewScheduler(RegistryWithFleet(c), Options{Workers: 1})
		defer s.Close()
		job, err := s.Submit(Spec{Analysis: AnalysisPSA, Engine: EngineFleet, Method: "naive", Synth: shape(1)})
		if err != nil {
			t.Fatal(err)
		}
		// No worker runs the units; the test leases one only to learn
		// the fleet job's id.
		var (
			worker fleet.RegisterResponse
			lease  fleet.Lease
		)
		code, body := call(http.MethodPost, "/v1/workers")
		if code != http.StatusCreated || json.Unmarshal([]byte(body), &worker) != nil {
			t.Fatalf("register: %d %s", code, body)
		}
		for lease.Job == "" {
			code, body = call(http.MethodPost, "/v1/workers/"+worker.ID+"/lease")
			switch code {
			case http.StatusOK:
				if err := json.Unmarshal([]byte(body), &lease); err != nil {
					t.Fatal(err)
				}
			case http.StatusNoContent:
				time.Sleep(time.Millisecond)
			default:
				t.Fatalf("lease: %d %s", code, body)
			}
		}
		// Each reader checks every blob against its member encoded from
		// fresh memory, so a read torn by the next job's generation fails
		// even without -race.
		g := shape(1)
		var readers, firstReads sync.WaitGroup
		for r := range g.Count {
			want, err := traj.EncodeMDT(synth.Walk(synthMemberName(r), g.Atoms, g.Frames, g.Seed, uint64(r)), 8)
			if err != nil {
				t.Fatal(err)
			}
			readers.Add(1)
			firstReads.Add(1)
			go func() {
				defer readers.Done()
				path := fmt.Sprintf("/v1/fleet/jobs/%s/input/traj-%04d-w00000.mdt", lease.Job, r)
				for n := 0; ; n++ {
					code, body := call(http.MethodGet, path)
					if code != http.StatusOK {
						if !strings.Contains(body, "no such job") {
							t.Errorf("blob read: %d %s", code, body)
						}
						if n == 0 {
							firstReads.Done()
						}
						return
					}
					if body != string(want) {
						t.Errorf("member %d: a blob read returned other bytes than its input's", r)
					}
					if n == 0 {
						firstReads.Done()
					}
				}
			}()
		}
		firstReads.Wait()
		cancelRunning(t, s, job)
		reuse(t, s)
		readers.Wait()
	})
}
