package jobs

import (
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mdtask/internal/faultinject"
)

// TestSchedulerCrashRecovery simulates a SIGKILL mid-workload: one job
// running, two queued, the data directory snapshotted at that instant.
// A fresh scheduler over the copied directory must re-run all three
// from their journaled specs to byte-identical results, and new
// submissions must not collide with recovered ids.
func TestSchedulerCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	// Buffered past the job count: once released, the drained jobs'
	// runners must not block on their started-signal sends.
	started := make(chan string, 8)
	release := make(chan struct{})
	s := NewScheduler(blockingRegistry(started, release), Options{Workers: 1, Journal: st})

	spec := validPSASpec()
	spec.Engine = EngineSerial
	var ids []string
	var specs []Spec
	for i := 0; i < 3; i++ {
		sp := spec
		synth := *spec.Synth // distinct content per job, unshared
		synth.Seed = uint64(100 + i)
		sp.Synth = &synth
		job, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID())
		specs = append(specs, sp)
	}
	<-started // job 1 is running; 2 and 3 are queued — all journaled

	// The "crash": a byte-level copy of the fsynced data directory is
	// exactly what a SIGKILL here would leave behind.
	crashDir := copyDir(t, dir)
	close(release)
	s.Close()
	st.Close()

	st2, rec := openStore(t, crashDir)
	defer st2.Close()
	if rec.CleanShutdown {
		t.Error("mid-workload image reported a clean shutdown")
	}
	if len(rec.Jobs) != 3 {
		t.Fatalf("recovered %d jobs, want 3", len(rec.Jobs))
	}
	if rec.Jobs[0].State != StateRunning || rec.Jobs[1].State != StateQueued || rec.Jobs[2].State != StateQueued {
		t.Fatalf("recovered states %s/%s/%s, want running/queued/queued",
			rec.Jobs[0].State, rec.Jobs[1].State, rec.Jobs[2].State)
	}

	s2 := NewScheduler(DefaultRegistry(), Options{Workers: 2, Journal: st2})
	defer s2.Close()
	s2.Recover(rec.Jobs)
	for i, id := range ids {
		job, ok := s2.Get(id)
		if !ok {
			t.Fatalf("job %s lost in recovery", id)
		}
		fin := waitTerminal(t, job)
		if fin.State != StateDone {
			t.Fatalf("recovered job %s finished %s (%s)", id, fin.State, fin.Error)
		}
		// Byte-identical to a fresh run of the same spec: deterministic
		// kernels are what make at-least-once re-execution safe.
		ref := referenceDigest(t, specs[i])
		res, _, _ := job.Result()
		if got := resultDigestOf(res); got != ref {
			t.Errorf("recovered job %s digest %s, reference run %s", id, got, ref)
		}
	}
	fresh, err := s2.Submit(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID() != "job-000004" {
		t.Errorf("post-recovery submission got id %s, want job-000004", fresh.ID())
	}
}

// referenceDigest runs a spec on a throwaway journal-less scheduler
// and returns its result digest.
func referenceDigest(t *testing.T, spec Spec) string {
	t.Helper()
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1})
	defer s.Close()
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, job); fin.State != StateDone {
		t.Fatalf("reference run finished %s (%s)", fin.State, fin.Error)
	}
	res, _, _ := job.Result()
	return resultDigestOf(res)
}

// TestSchedulerCleanShutdownRecovery checks the full graceful cycle:
// run to done, Close journals the shutdown marker, and the next boot
// sees a clean journal whose done record carries a digest that a
// recomputation of the same spec reproduces exactly.
func TestSchedulerCleanShutdownRecovery(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1, Journal: st})
	job, err := s.Submit(validPSASpec())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	res, _, _ := job.Result()
	digest := resultDigestOf(res)
	id := job.ID()
	s.Close()
	st.Close()

	st2, rec := openStore(t, dir)
	defer st2.Close()
	if !rec.CleanShutdown {
		t.Error("graceful shutdown left an unclean journal")
	}
	if len(rec.Jobs) != 1 || rec.Jobs[0].State != StateDone || rec.Jobs[0].Digest != digest {
		t.Fatalf("recovered %+v, want done record with digest %s", rec.Jobs, digest)
	}

	s2 := NewScheduler(DefaultRegistry(), Options{Workers: 1, Journal: st2})
	defer s2.Close()
	s2.Recover(rec.Jobs)
	recovered, ok := s2.Get(id)
	if !ok {
		t.Fatalf("done job %s lost in recovery", id)
	}
	if res2, state, _ := recovered.Result(); state != StateDone || res2 != nil {
		t.Fatalf("recovered done job: state %s, result %v (bodies are not journaled)", state, res2)
	}
	// Resubmitting the spec recomputes the matrix; the digest must
	// match what the journal recorded before the restart.
	rerun, err := s2.Submit(validPSASpec())
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, rerun); fin.State != StateDone {
		t.Fatalf("recomputation finished %s (%s)", fin.State, fin.Error)
	}
	res3, _, _ := rerun.Result()
	if got := resultDigestOf(res3); got != digest {
		t.Errorf("recomputed digest %s, journaled %s", got, digest)
	}
}

// TestSubmitFailsWhenJournalFails checks the durability contract at
// the API edge: if the journal cannot take the submit record, the
// submission is rejected and nothing is admitted — and the id sequence
// does not leak.
func TestSubmitFailsWhenJournalFails(t *testing.T) {
	t.Cleanup(faultinject.Deactivate)
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	defer st.Close()
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1, Journal: st})
	defer s.Close()
	if err := faultinject.Activate("jobs.journal=error"); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(validPSASpec())
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("submit with failing journal = %v, want ErrInjected", err)
	}
	if !errors.Is(err, ErrJournal) {
		// The server maps ErrJournal to a 5xx: the spec was valid, the
		// service just couldn't make it durable.
		t.Fatalf("submit with failing journal = %v, want ErrJournal in the chain", err)
	}
	if got := len(s.Jobs()); got != 0 {
		t.Fatalf("%d jobs admitted despite journal failure", got)
	}
	faultinject.Deactivate()
	job, err := s.Submit(validPSASpec())
	if err != nil {
		t.Fatal(err)
	}
	if job.ID() != "job-000001" {
		t.Errorf("post-failure submission got id %s, want job-000001 (sequence leaked)", job.ID())
	}
	waitTerminal(t, job)
}

// TestServerQueueFullReturns429 checks overload surfaces as 429 with a
// Retry-After hint and lands in the rejection counter.
func TestServerQueueFullReturns429(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s := NewScheduler(blockingRegistry(started, release), Options{Workers: 1, QueueDepth: 1})
	defer s.Close()
	defer close(release)
	spec := validPSASpec()
	spec.Engine = EngineSerial
	if _, err := s.Submit(spec); err != nil { // occupies the worker
		t.Fatal(err)
	}
	<-started
	spec2 := spec
	spec2.Synth.Seed = 2
	if _, err := s.Submit(spec2); err != nil { // fills the queue
		t.Fatal(err)
	}

	ts := httptest.NewServer(NewServerWith(s, ServerOptions{}))
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"analysis":"psa","engine":"serial","synth":{"count":3,"atoms":8,"frames":4,"seed":3}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("queue-full POST = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if got := s.rejectedCtr.Value(); got < 1 {
		t.Errorf("mdtask_jobs_rejected_total = %d, want >= 1", got)
	}
}

// TestServerRecoveredResultGone checks a done job whose result body
// did not survive the restart answers 410, not 200-with-nothing.
func TestServerRecoveredResultGone(t *testing.T) {
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1})
	defer s.Close()
	norm, err := validPSASpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1700000000, 0).UTC()
	s.Recover([]JobRecord{{
		ID: "job-000001", Spec: norm, Key: "k", State: StateDone,
		Digest: "d", Created: now, Updated: now,
	}})
	ts := httptest.NewServer(NewServerWith(s, ServerOptions{}))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/job-000001/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 410 {
		t.Fatalf("result of recovered done job = %d, want 410 Gone", resp.StatusCode)
	}
}

// TestRecoverResolvesFailureVisibly checks a recovered job whose input
// can no longer be resolved is surfaced failed with a reason.
func TestRecoverResolvesFailureVisibly(t *testing.T) {
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1})
	defer s.Close()
	norm, err := validPSASpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	norm.Synth = nil
	norm.Path = "/nonexistent/trajectory/file"
	now := time.Unix(1700000000, 0).UTC()
	s.Recover([]JobRecord{{ID: "job-000001", Spec: norm, State: StateQueued, Created: now}})
	job, ok := s.Get("job-000001")
	if !ok {
		t.Fatal("unresolvable job dropped instead of surfaced")
	}
	st := job.Status()
	if st.State != StateFailed || !strings.Contains(st.Error, "recovering") {
		t.Fatalf("unresolvable recovered job: %+v", st)
	}
}
