package jobs

import (
	"errors"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"mdtask/internal/faultinject"
	"mdtask/internal/leaflet"
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

	// The "crash": a byte-level copy of the data directory is exactly
	// what a SIGKILL here would leave behind: the page cache keeps every
	// written record, synced or not.
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
	s2.Recover()
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
		if got := mustResultDigest(t, res); got != ref {
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

// recoverRecords admits recs into a memory-only scheduler's table as
// replay would, then recovers them.
func recoverRecords(t *testing.T, s *Scheduler, recs ...JobRecord) {
	t.Helper()
	for _, rec := range recs {
		if err := s.journal.JournalSubmit(rec); err != nil {
			t.Fatal(err)
		}
	}
	s.Recover()
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
	return mustResultDigest(t, res)
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
	digest := mustResultDigest(t, res)
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
	s2.Recover()
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
	if got := mustResultDigest(t, res3); got != digest {
		t.Errorf("recomputed digest %s, journaled %s", got, digest)
	}
}

// TestRecoveredDigestChecked checks that the digest a done record
// journaled is kept through recovery and compared with the digest of
// the next identical run: a true record counts no mismatch, and a
// corrupted one counts exactly one in
// mdtask_jobs_result_digest_mismatch_total, once per recovered job.
func TestRecoveredDigestChecked(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1, Journal: st})
	job, err := s.Submit(validPSASpec())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	s.Close()
	st.Close()
	st2, rec := openStore(t, dir)
	st2.Close()
	if len(rec.Jobs) != 1 || rec.Jobs[0].State != StateDone || rec.Jobs[0].Digest == "" {
		t.Fatalf("recovered %+v, want one done record with a digest", rec.Jobs)
	}
	corrupted := rec.Jobs[0]
	corrupted.Digest = strings.Repeat("0", len(corrupted.Digest))

	for _, tc := range []struct {
		name string
		rec  JobRecord
		want int64
	}{
		{"matching", rec.Jobs[0], 0},
		{"corrupted", corrupted, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler(DefaultRegistry(), Options{Workers: 1})
			defer s.Close()
			recoverRecords(t, s, tc.rec)
			recovered, ok := s.Get(tc.rec.ID)
			if !ok || recovered.record().Digest != tc.rec.Digest {
				t.Fatalf("recovered job lost its journaled digest %s", tc.rec.Digest)
			}
			// Twice: the second run is a whole-job cache hit, and the
			// record is checked only once.
			for i := 0; i < 2; i++ {
				rerun, err := s.Submit(validPSASpec())
				if err != nil {
					t.Fatal(err)
				}
				if fin := waitTerminal(t, rerun); fin.State != StateDone {
					t.Fatalf("resubmission finished %s (%s)", fin.State, fin.Error)
				}
			}
			if got := s.digestMismatchCtr.Value(); got != tc.want {
				t.Errorf("mdtask_jobs_result_digest_mismatch_total = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestRecoveredV2KeyNeverCompared recovers, from a journal on disk, a
// done PSA job that a server of cache-key version v2 recorded: its key
// and its result digest, both computed with the serial dRMS summation
// that v3's eight-lane one replaced. Resubmitting the same spec must run
// the job, to a result whose digest differs from the recorded one in
// the last ulps, and count no mismatch: the v2 key is one no new job
// computes, so the old digest is never compared.
func TestRecoveredV2KeyNeverCompared(t *testing.T) {
	spec := Spec{Analysis: AnalysisPSA, Engine: EngineSerial, Synth: &SynthSpec{Count: 4, Atoms: 1024, Frames: 16, Seed: 7}}
	const (
		v2Key    = "7709e1240d2e62d97ab237c699a722ac686e3219124a10f10215ade8c3f3c7e0"
		v2Digest = "7248cb38ddf1025ca6f65c04dd19ca05aa8c63d0bd630489d6ec201f52163a3b"
	)
	norm, err := spec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	at := time.Date(2026, 10, 1, 0, 0, 0, 0, time.UTC)
	if err := st.JournalSubmit(JobRecord{ID: "job-000001", Spec: norm, Key: v2Key, State: StateDone,
		Digest: v2Digest, Created: at, Updated: at}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, rec := openStore(t, dir)
	defer st2.Close()
	if len(rec.Jobs) != 1 || rec.Jobs[0].Key != v2Key || rec.Jobs[0].State != StateDone {
		t.Fatalf("recovered %+v, want the one done v2 record", rec.Jobs)
	}
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1, Journal: st2})
	defer s.Close()
	s.Recover()
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID() == "job-000001" {
		t.Fatal("the resubmission was answered by the recovered v2 job")
	}
	if fin := waitTerminal(t, job); fin.State != StateDone {
		t.Fatalf("resubmission finished %s (%s)", fin.State, fin.Error)
	}
	res, _, _ := job.Result()
	if got := mustResultDigest(t, res); got == v2Digest {
		t.Fatalf("result digest %s equals the v2 one: this spec no longer shows the arithmetic change", got)
	}
	if got := s.digestMismatchCtr.Value(); got != 0 {
		t.Errorf("mdtask_jobs_result_digest_mismatch_total = %d, want 0", got)
	}
}

// TestRecoveredV3TreeKeyNeverCompared recovers, from a journal on disk,
// a done tree-approach Leaflet job that a server of cache-key version v3
// recorded: its key and its result digest, from the fine grid's 126
// live tiles that v4's cost plan replaced. Resubmitting the same spec
// must run the job, to the same labels in fewer tiles and so to another
// digest, and count no mismatch: the v3 key is one no new job computes,
// so the old digest is never compared.
func TestRecoveredV3TreeKeyNeverCompared(t *testing.T) {
	spec := Spec{Analysis: AnalysisLeaflet, Engine: EngineSerial, Approach: "tree", Synth: &SynthSpec{Atoms: 2048, Seed: 7}}
	const (
		v3Key    = "f3606a04e396b867dcd0fa4b5a560e8e7c25a4431d078024d089eaa4f84902ba"
		v3Digest = "8561ff789d5679785b870320f92597b5b398faa92a29b7f4d00c0c11a39d113c"
		v3Tiles  = 126
	)
	norm, err := spec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	at := time.Date(2026, 10, 1, 0, 0, 0, 0, time.UTC)
	if err := st.JournalSubmit(JobRecord{ID: "job-000001", Spec: norm, Key: v3Key, State: StateDone,
		Digest: v3Digest, Created: at, Updated: at}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, rec := openStore(t, dir)
	defer st2.Close()
	if len(rec.Jobs) != 1 || rec.Jobs[0].Key != v3Key || rec.Jobs[0].State != StateDone {
		t.Fatalf("recovered %+v, want the one done v3 record", rec.Jobs)
	}
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1, Journal: st2})
	defer s.Close()
	s.Recover()
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, job)
	if job.ID() == "job-000001" || fin.CacheHit || fin.State != StateDone {
		t.Fatalf("resubmission %s finished %s (cache hit %v, %s), want a fresh run to done", job.ID(), fin.State, fin.CacheHit, fin.Error)
	}
	res, _, _ := job.Result()
	if got := mustResultDigest(t, res); got == v3Digest {
		t.Fatalf("result digest %s equals the v3 one: this spec no longer shows the plan change", got)
	}
	if tiles := res.Leaflet.Stats.Tasks; tiles >= v3Tiles {
		t.Errorf("the tree plan ran %d tiles, want fewer than the fine grid's %d", tiles, v3Tiles)
	}
	in, err := ResolveInput(norm)
	if err != nil {
		t.Fatal(err)
	}
	if want := leaflet.Serial(in.Coords, norm.Cutoff); !slices.Equal(res.Leaflet.Labels, want.Labels) || res.Leaflet.Stats.Edges != want.Stats.Edges {
		t.Errorf("the resubmission's labels or edges differ from leaflet.Serial")
	}
	if got := s.digestMismatchCtr.Value(); got != 0 {
		t.Errorf("mdtask_jobs_result_digest_mismatch_total = %d, want 0", got)
	}
}

// TestRecoveredContentKeyNeverCompared is the upgrade path from content-
// to recipe-addressed synth inputs. A journal written before holds a
// done synth PSA job under the key its generated coordinates' SHA-256
// gave it, under the cache-key version v3 of that code. After the upgrade the same spec computes its recipe key, so
// the resubmission runs rather than meeting the old record, and its
// result — the same arithmetic, so the same bits the old job journaled —
// is never compared with the recovered one: the old record stays
// unconsumed and mdtask_jobs_result_digest_mismatch_total stays 0.
func TestRecoveredContentKeyNeverCompared(t *testing.T) {
	spec := Spec{Analysis: AnalysisPSA, Engine: EngineSerial, Synth: &SynthSpec{Count: 4, Atoms: 1024, Frames: 16, Seed: 7}}
	const (
		contentKey   = "9e27763c904bc8e742f765f6921d918cd30eb30edabb116d2aa68fa7eafcf2fe"
		resultDigest = "e7ecceefc5810bacb3b59855b882d631846709758e08559bdb16eb3297a1aabb"
	)
	norm, err := spec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	in, err := ResolveInput(norm)
	if err != nil {
		t.Fatal(err)
	}
	if k := cacheKeyFmt("v3", norm, generatedContent(t, in)); k != contentKey {
		t.Fatalf("content-addressed key %s, want %s: the pin no longer names what the earlier code journaled", k, contentKey)
	}
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	at := time.Date(2026, 10, 1, 0, 0, 0, 0, time.UTC)
	if err := st.JournalSubmit(JobRecord{ID: "job-000001", Spec: norm, Key: contentKey, State: StateDone,
		Digest: resultDigest, Created: at, Updated: at}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, _ := openStore(t, dir)
	defer st2.Close()
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1, Journal: st2})
	defer s.Close()
	s.Recover()
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, job)
	if job.ID() == "job-000001" || fin.CacheHit || fin.State != StateDone {
		t.Fatalf("resubmission %s finished %s (cache hit %v, %s), want a fresh run to done", job.ID(), fin.State, fin.CacheHit, fin.Error)
	}
	res, _, _ := job.Result()
	if got := mustResultDigest(t, res); got != resultDigest {
		t.Errorf("result digest %s, want the journaled %s: only the key may move", got, resultDigest)
	}
	s.mu.Lock()
	_, unconsumed := s.recoveredDone[contentKey]
	s.mu.Unlock()
	if !unconsumed {
		t.Error("the recovered content-keyed record was compared with the recipe-keyed run")
	}
	if got := s.digestMismatchCtr.Value(); got != 0 {
		t.Errorf("mdtask_jobs_result_digest_mismatch_total = %d, want 0", got)
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
	recoverRecords(t, s, JobRecord{
		ID: "job-000001", Spec: norm, Key: "k", State: StateDone,
		Digest: "d", Created: now, Updated: now,
	})
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
	recoverRecords(t, s, JobRecord{ID: "job-000001", Spec: norm, State: StateQueued, Created: now})
	job, ok := s.Get("job-000001")
	if !ok {
		t.Fatal("unresolvable job dropped instead of surfaced")
	}
	st := job.Status()
	if st.State != StateFailed || !strings.Contains(st.Error, "recovering") {
		t.Fatalf("unresolvable recovered job: %+v", st)
	}
}
