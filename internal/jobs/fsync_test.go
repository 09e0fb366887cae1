package jobs

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mdtask/internal/faultinject"
	"mdtask/internal/wal"
)

// serialSpec is a serial PSA job whose content (and so cache key)
// depends on seed.
func serialSpec(seed uint64) Spec {
	spec := validPSASpec()
	spec.Engine = EngineSerial
	synth := *spec.Synth
	synth.Seed = seed
	spec.Synth = &synth
	return spec
}

// journalStats returns the store's WAL counters, failing the test
// unless it has appended at least n records since open: a job reads a
// state only once its record is appended, so the count is exact by the
// time the job's state is seen.
func journalStats(t *testing.T, st *WALStore, n int64) wal.Stats {
	t.Helper()
	s := st.log.Stats()
	if s.Appends < n {
		t.Fatalf("store appended %d records, want %d", s.Appends, n)
	}
	return s
}

// TestSchedulerOneFsyncPerAdmission counts the journal's fsyncs under
// SyncAlways: every job appends its submit, running and done records,
// but only the submit waits for an fsync, so N jobs cost N fsyncs plus
// one per compaction (compactMin is 1: the log compacts whenever it
// outgrows the last snapshot). A whole-job cache hit is one synced submit, and
// a queued job's cancel adds exactly one fsync.
func TestSchedulerOneFsyncPerAdmission(t *testing.T) {
	const n = 6
	st, _ := openStore(t, t.TempDir(), func(o *WALStoreOptions) { o.compactMin = 1 })
	defer st.Close()
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1, Journal: st})
	defer s.Close()
	for i := 0; i < n; i++ {
		job, err := s.Submit(serialSpec(uint64(100 + i)))
		if err != nil {
			t.Fatal(err)
		}
		if fin := waitTerminal(t, job); fin.State != StateDone {
			t.Fatalf("job %s finished %s (%s)", fin.ID, fin.State, fin.Error)
		}
	}
	hit, err := s.Submit(serialSpec(100))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Status().CacheHit {
		t.Fatal("resubmission was not a whole-job cache hit")
	}
	got := journalStats(t, st, 3*n+1)
	if got.Appends != 3*n+1 {
		t.Errorf("appends = %d, want %d (submit, running, done per job plus one cache-hit submit)", got.Appends, 3*n+1)
	}
	if got.Snapshots == 0 {
		t.Error("no compaction ran; the test no longer covers the snapshot fsync")
	}
	if want := int64(n+1) + got.Snapshots; got.Syncs != want {
		t.Errorf("fsyncs = %d, want %d: one per admission (%d) plus one per snapshot (%d)",
			got.Syncs, want, n+1, got.Snapshots)
	}

	started := make(chan string, 2)
	release := make(chan struct{})
	st2, _ := openStore(t, t.TempDir())
	defer st2.Close()
	s2 := NewScheduler(blockingRegistry(started, release), Options{Workers: 1, Journal: st2})
	defer s2.Close()
	defer close(release)
	if _, err := s2.Submit(serialSpec(1)); err != nil {
		t.Fatal(err)
	}
	<-started // the only worker is parked, so the next job stays queued
	queued, err := s2.Submit(serialSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	before := st2.log.Stats()
	if _, changed := s2.Cancel(queued.ID()); !changed {
		t.Fatal("cancel of a queued job changed nothing")
	}
	after := st2.log.Stats()
	if d := after.Syncs - before.Syncs; d != 1 {
		t.Errorf("queued cancel issued %d fsyncs, want 1", d)
	}
	if d := after.Appends - before.Appends; d != 1 {
		t.Errorf("queued cancel appended %d records, want 1", d)
	}
}

// journalFrames splits a wal.log image into its frames' end offsets
// and decoded records.
func journalFrames(t *testing.T, data []byte) (ends []int, recs []walRecord) {
	t.Helper()
	for pos := 0; pos < len(data); {
		n := int(binary.LittleEndian.Uint32(data[pos:]))
		var r walRecord
		if err := json.Unmarshal(data[pos+8:pos+8+n], &r); err != nil {
			t.Fatalf("frame at %d: %v", pos, err)
		}
		pos += 8 + n
		ends = append(ends, pos)
		recs = append(recs, r)
	}
	return ends, recs
}

// TestSchedulerPowerLossRecovery models a power loss: the disk keeps the
// log only up to its last synced record, the last submit or cancel
// frame. Every acknowledged submission must recover, an acknowledged
// cancel must stay cancelled, and the jobs whose running and done
// records were cut must re-run to the digests they had before.
func TestSchedulerPowerLossRecovery(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	// The serial runner, gated so the first job stays running while a
	// second is queued and cancelled and a third is admitted.
	gate := make(chan struct{})
	started := make(chan struct{}, 2) // one send per job that runs
	serial, _ := DefaultRegistry().Lookup(RunnerName(AnalysisPSA, EngineSerial))
	reg := NewRegistry()
	must(reg.Register(RunnerName(AnalysisPSA, EngineSerial), func(rc *RunContext, spec Spec, in *Input) (*Result, error) {
		started <- struct{}{}
		<-gate
		return serial(rc, spec, in)
	}))
	s := NewScheduler(reg, Options{Workers: 1, Journal: st})
	running, err := s.Submit(serialSpec(100))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancelled, err := s.Submit(serialSpec(101))
	if err != nil {
		t.Fatal(err)
	}
	if _, changed := s.Cancel(cancelled.ID()); !changed {
		t.Fatal("cancel of a queued job changed nothing")
	}
	queued, err := s.Submit(serialSpec(102))
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	digests := map[string]string{}
	for _, job := range []*Job{running, queued} {
		if fin := waitTerminal(t, job); fin.State != StateDone {
			t.Fatalf("job %s finished %s (%s)", fin.ID, fin.State, fin.Error)
		}
		res, _, _ := job.Result()
		digests[job.ID()] = mustResultDigest(t, res)
	}
	journalStats(t, st, 8) // 3 submits, 1 cancel, 2 running, 2 done
	// Read the image before Close: the shutdown marker compacts the log.
	data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	st.Close()
	ends, recs := journalFrames(t, data)
	cut, doneCut := 0, 0
	for i, r := range recs {
		if r.T == "submit" || r.State == StateCancelled {
			cut = ends[i]
		}
	}
	for i, r := range recs {
		if r.State == StateDone && ends[i] > cut {
			doneCut++
		}
	}
	if doneCut != 2 {
		t.Fatalf("the cut after the last synced frame drops %d done records, want 2", doneCut)
	}
	crashDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(crashDir, "wal.log"), data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, rec := openStore(t, crashDir)
	defer st2.Close()
	if rec.Skipped != 0 || rec.Unreplayable != 0 || len(rec.Jobs) != 3 {
		t.Fatalf("recovered %d jobs (skipped %d, unreplayable %d), want 3 clean", len(rec.Jobs), rec.Skipped, rec.Unreplayable)
	}
	s2 := NewScheduler(DefaultRegistry(), Options{Workers: 1, Journal: st2})
	defer s2.Close()
	s2.Recover()
	if job, ok := s2.Get(cancelled.ID()); !ok || job.Status().State != StateCancelled {
		t.Fatalf("acknowledged cancel of %s did not survive the power loss", cancelled.ID())
	}
	for id, want := range digests {
		job, ok := s2.Get(id)
		if !ok {
			t.Fatalf("acknowledged job %s lost to the power loss", id)
		}
		if fin := waitTerminal(t, job); fin.State != StateDone {
			t.Fatalf("re-run of %s finished %s (%s)", id, fin.State, fin.Error)
		}
		res, _, _ := job.Result()
		if got := mustResultDigest(t, res); got != want {
			t.Errorf("re-run of %s digest %s, before the power loss %s", id, got, want)
		}
	}
}

// TestDoneRecordAppendFailure arms the wal.append fault point for a
// job's done record, its third append: the job still reads done, the
// failure is counted in mdtask_jobs_journal_errors_total, and the next
// submission is admitted.
func TestDoneRecordAppendFailure(t *testing.T) {
	t.Cleanup(func() { faultinject.Activate("") })
	st, _ := openStore(t, t.TempDir())
	defer st.Close()
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1, Journal: st})
	defer s.Close()
	before := promCounter(t, s, "mdtask_jobs_journal_errors_total")
	if err := faultinject.Activate("wal.append=error@3"); err != nil {
		t.Fatal(err)
	}
	job, err := s.Submit(serialSpec(100))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, job); fin.State != StateDone {
		t.Fatalf("job finished %s (%s), want done despite the failed done record", fin.State, fin.Error)
	}
	if got := promCounter(t, s, "mdtask_jobs_journal_errors_total"); got != before+1 {
		t.Errorf("mdtask_jobs_journal_errors_total rose by %g, want 1", got-before)
	}
	faultinject.Activate("")
	next, err := s.Submit(serialSpec(101))
	if err != nil {
		t.Fatalf("submission after a failed done record: %v", err)
	}
	if fin := waitTerminal(t, next); fin.State != StateDone {
		t.Fatalf("next job finished %s (%s)", fin.State, fin.Error)
	}
}

// TestJournalShutdownOneFsync counts the shutdown marker's fsyncs: the
// compaction before it syncs once under SyncAlways, and the marker is
// written unsynced and made durable by exactly one Sync, whatever the
// policy.
func TestJournalShutdownOneFsync(t *testing.T) {
	for _, tc := range []struct {
		policy      wal.SyncPolicy
		compactions int64 // fsyncs the compaction adds
	}{
		{wal.SyncAlways, 1},
		{wal.SyncNever, 0},
	} {
		t.Run(string(tc.policy), func(t *testing.T) {
			st, _ := openStore(t, t.TempDir(), func(o *WALStoreOptions) { o.Sync = tc.policy })
			defer st.Close()
			if err := st.JournalSubmit(JobRecord{ID: "job-000001", Spec: serialSpec(1), State: StateQueued}); err != nil {
				t.Fatal(err)
			}
			before := st.log.Stats()
			if err := st.shutdown(); err != nil {
				t.Fatal(err)
			}
			after := st.log.Stats()
			if d := after.Snapshots - before.Snapshots; d != 1 {
				t.Fatalf("shutdown compacted %d times, want 1", d)
			}
			if d := after.Syncs - before.Syncs; d != tc.compactions+1 {
				t.Errorf("shutdown issued %d fsyncs, want %d (compaction %d + marker 1)", d, tc.compactions+1, tc.compactions)
			}
			if d := after.Appends - before.Appends; d != 1 {
				t.Errorf("shutdown appended %d records, want 1", d)
			}
		})
	}
}
