package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"mdtask/internal/faultinject"
	"mdtask/internal/wal"
)

// openStore opens a WALStore in dir, failing the test on error.
func openStore(t *testing.T, dir string, opts ...func(*WALStoreOptions)) (*WALStore, *Recovered) {
	t.Helper()
	o := WALStoreOptions{Dir: dir}
	for _, f := range opts {
		f(&o)
	}
	st, rec, err := OpenWALStore(o)
	if err != nil {
		t.Fatalf("OpenWALStore(%s): %v", dir, err)
	}
	return st, rec
}

// mustCompact fails t unless st's log was compacted since it opened: a
// test that lowers compactMin to compact mid-run must see it happen.
func mustCompact(t *testing.T, st *WALStore) {
	t.Helper()
	if st.log.Stats().Snapshots == 0 {
		t.Fatal("no compaction ran; the test no longer covers replay over a snapshot")
	}
}

// tableJSON renders a recovered job table for comparison: JSON
// round-trips the timestamps exactly as the journal stores them, so
// two on-disk replays of equivalent logs compare byte-identical.
func tableJSON(t *testing.T, jobs []JobRecord) string {
	t.Helper()
	raw, err := json.Marshal(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// copyDir snapshots a data directory — the moral equivalent of a
// SIGKILL at that instant, which keeps every written record, synced or
// not (unsynced frames live in the page cache).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// prune journals the eviction of ids, as retention does.
func prune(t *testing.T, st *WALStore, ids ...string) {
	t.Helper()
	if err := st.append(walRecord{T: "prune", IDs: ids}, false); err != nil {
		t.Fatal(err)
	}
}

func testRecord(id string) JobRecord {
	spec, _ := validPSASpec().Normalized()
	now := time.Unix(1700000000, 0).UTC()
	return JobRecord{ID: id, Spec: spec, Key: "key-" + id, State: StateQueued, Created: now, Updated: now}
}

func TestWALStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, rec := openStore(t, dir)
	if len(rec.Jobs) != 0 || rec.CleanShutdown {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	ts := time.Unix(1700000001, 0).UTC()
	if err := st.JournalSubmit(testRecord("job-000001")); err != nil {
		t.Fatal(err)
	}
	if err := st.JournalSubmit(testRecord("job-000002")); err != nil {
		t.Fatal(err)
	}
	if err := st.JournalState("job-000001", StateRunning, "", "", ts); err != nil {
		t.Fatal(err)
	}
	if err := st.JournalState("job-000001", StateDone, "", "digest-1", ts); err != nil {
		t.Fatal(err)
	}
	if err := st.shutdown(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, rec2 := openStore(t, dir)
	defer st2.Close()
	if !rec2.CleanShutdown {
		t.Error("clean shutdown not detected")
	}
	if len(rec2.Jobs) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(rec2.Jobs))
	}
	if j := rec2.Jobs[0]; j.ID != "job-000001" || j.State != StateDone || j.Digest != "digest-1" {
		t.Errorf("job 1 recovered as %+v", j)
	}
	if j := rec2.Jobs[1]; j.ID != "job-000002" || j.State != StateQueued {
		t.Errorf("job 2 recovered as %+v", j)
	}
	if rec2.Skipped != 0 || rec2.Unreplayable != 0 {
		t.Errorf("healthy log reported skipped=%d unreplayable=%d", rec2.Skipped, rec2.Unreplayable)
	}
}

func TestWALStorePruneDropsRecords(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	for i := 1; i <= 3; i++ {
		if err := st.JournalSubmit(testRecord(fmt.Sprintf("job-%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	prune(t, st, "job-000001", "job-000003")
	st.Close()
	st2, rec := openStore(t, dir)
	defer st2.Close()
	if len(rec.Jobs) != 1 || rec.Jobs[0].ID != "job-000002" {
		t.Fatalf("prune not replayed: %+v", rec.Jobs)
	}
}

// Over 10 000 submit + prune cycles at a fixed retention, with pruned
// ids resubmitted and live ones submitted twice, the order never grows
// past twice the table (a prune leaves no stale entry behind), and the
// live and recovered tables equal the retained jobs in submission
// order.
func TestWALStorePruneKeepsOrderBounded(t *testing.T) {
	const retain = 64
	dir := t.TempDir()
	st, _ := openStore(t, dir, func(o *WALStoreOptions) { o.Sync = wal.SyncNever })
	var want []string // the retained ids, in submission order
	next, pruned := 0, ""
	for cycle := 0; cycle < 10000; cycle++ {
		id := fmt.Sprintf("job-%06d", next)
		switch {
		case cycle%97 == 0 && pruned != "":
			id = pruned // its stale entry is still in the order
		case cycle%89 == 0 && len(want) > 0:
			id = want[len(want)/2] // live: keeps its place
		default:
			next++
		}
		if err := st.JournalSubmit(testRecord(id)); err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(want, id) {
			want = append(want, id)
		}
		if len(want) > retain {
			prune(t, st, want[0])
			pruned, want = want[0], want[1:]
		}
		if st.mu.Lock(); len(st.tab.order) > 2*len(st.tab.jobs) {
			t.Fatalf("cycle %d: %d order entries for %d jobs", cycle, len(st.tab.order), len(st.tab.jobs))
		}
		st.mu.Unlock()
	}
	ids := func(jobs []JobRecord) []string {
		out := make([]string, len(jobs))
		for i, j := range jobs {
			out[i] = j.ID
		}
		return out
	}
	st.mu.Lock()
	live := st.tab.records()
	st.mu.Unlock()
	if got := ids(live); !slices.Equal(got, want) {
		t.Fatalf("live table %v, want %v", got, want)
	}
	st.Close()
	st2, rec := openStore(t, dir)
	defer st2.Close()
	if tableJSON(t, rec.Jobs) != tableJSON(t, live) {
		t.Fatalf("recovered %v, live %v", ids(rec.Jobs), want)
	}
}

// randomLifecycle journals a deterministic pseudo-random sequence of
// submits, transitions, and prunes, and returns the expected final
// state per surviving job id.
func randomLifecycle(t *testing.T, st *WALStore, rng *rand.Rand, ops int) map[string]State {
	t.Helper()
	expect := make(map[string]State)
	var ids []string
	next := 0
	states := []State{StateRunning, StateDone, StateFailed, StateCancelled}
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(10); {
		case r < 4 || len(ids) == 0: // submit
			next++
			id := fmt.Sprintf("job-%06d", next)
			if err := st.JournalSubmit(testRecord(id)); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			expect[id] = StateQueued
		case r < 8: // transition
			id := ids[rng.Intn(len(ids))]
			s := states[rng.Intn(len(states))]
			if err := st.JournalState(id, s, "", "", time.Unix(1700000000+int64(i), 0).UTC()); err != nil {
				t.Fatal(err)
			}
			expect[id] = s
		default: // prune one terminal job
			for _, id := range ids {
				if expect[id].Terminal() {
					prune(t, st, id)
					delete(expect, id)
					for k, v := range ids {
						if v == id {
							ids = append(ids[:k], ids[k+1:]...)
							break
						}
					}
					break
				}
			}
		}
	}
	return expect
}

// TestWALStoreReplayIdempotence replays the same on-disk journal, a
// snapshot plus the log written after it, repeatedly: every replay must
// reconstruct the identical table, and replaying must not mutate the
// journal.
func TestWALStoreReplayIdempotence(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, func(o *WALStoreOptions) { o.compactMin = 1 })
	randomLifecycle(t, st, rand.New(rand.NewSource(42)), 120)
	mustCompact(t, st)
	st.Close()

	var first string
	for i := 0; i < 3; i++ {
		st, rec := openStore(t, dir, func(o *WALStoreOptions) { o.compactMin = 1 })
		got := tableJSON(t, rec.Jobs)
		st.Close()
		if i == 0 {
			first = got
			continue
		}
		if got != first {
			t.Fatalf("replay %d diverged:\n%s\nvs\n%s", i, got, first)
		}
	}
}

// TestWALStoreSnapshotEquivalence runs identical randomized lifecycle
// sequences through a store that compacts aggressively and one that
// never compacts: snapshot + truncation must preserve exactly the
// replay a full log would give.
func TestWALStoreSnapshotEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		compDir, plainDir := t.TempDir(), t.TempDir()
		comp, _ := openStore(t, compDir, func(o *WALStoreOptions) { o.compactMin = 1 })
		plain, _ := openStore(t, plainDir, func(o *WALStoreOptions) { o.compactMin = 1 << 40 })
		randomLifecycle(t, comp, rand.New(rand.NewSource(seed)), 80)
		randomLifecycle(t, plain, rand.New(rand.NewSource(seed)), 80)
		mustCompact(t, comp)
		comp.Close()
		plain.Close()

		c2, crec := openStore(t, compDir)
		p2, prec := openStore(t, plainDir)
		if got, want := tableJSON(t, crec.Jobs), tableJSON(t, prec.Jobs); got != want {
			t.Fatalf("seed %d: compacted replay diverged from full-log replay:\n%s\nvs\n%s", seed, got, want)
		}
		c2.Close()
		p2.Close()
	}
}

// TestWALStoreCrashAtEveryRecordBoundary snapshots the data directory
// after every single journal write — each copy is the disk image a
// SIGKILL at that record boundary would leave (written records survive
// a process kill whether or not they were fsynced) — and re-opens them
// all: no acknowledged record may be lost, nothing may be skipped, and
// the table must match the expectation at that instant.
func TestWALStoreCrashAtEveryRecordBoundary(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, func(o *WALStoreOptions) { o.compactMin = 1 })
	rng := rand.New(rand.NewSource(7))

	type image struct {
		dir    string
		expect string
	}
	var images []image
	snapshot := func() {
		st.mu.Lock()
		expect := tableJSON(t, st.tab.records())
		st.mu.Unlock()
		images = append(images, image{dir: copyDir(t, dir), expect: expect})
	}
	for i := 0; i < 40; i++ {
		randomLifecycle(t, st, rng, 1)
		snapshot()
	}
	mustCompact(t, st)
	st.Close()

	for i, img := range images {
		st2, rec := openStore(t, img.dir)
		if rec.Skipped != 0 || rec.Unreplayable != 0 {
			t.Errorf("image %d: skipped=%d unreplayable=%d, want 0/0", i, rec.Skipped, rec.Unreplayable)
		}
		if got := tableJSON(t, rec.Jobs); got != img.expect {
			t.Errorf("image %d: recovered table diverged:\n%s\nvs expected\n%s", i, got, img.expect)
		}
		st2.Close()
	}
}

// TestWALStoreUnreplayableTransition checks a state record whose
// submit record is gone surfaces the job as failed (with a reason)
// instead of dropping the evidence.
func TestWALStoreUnreplayableTransition(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	if err := st.JournalSubmit(testRecord("job-000001")); err != nil {
		t.Fatal(err)
	}
	// A transition for a job this journal never admitted.
	if err := st.JournalState("job-999999", StateRunning, "", "", time.Unix(1700000002, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, rec := openStore(t, dir)
	defer st2.Close()
	if rec.Unreplayable != 1 {
		t.Errorf("unreplayable = %d, want 1", rec.Unreplayable)
	}
	var orphan *JobRecord
	for i := range rec.Jobs {
		if rec.Jobs[i].ID == "job-999999" {
			orphan = &rec.Jobs[i]
		}
	}
	if orphan == nil || orphan.State != StateFailed || orphan.Error == "" {
		t.Fatalf("orphaned transition not surfaced as failed: %+v", orphan)
	}
}

// TestWALStoreFsyncFailureDoesNotLoseNextJob is the reviewer scenario
// for the fsync-failure path: a submission rejected because the WAL
// fsync failed must leave no frame behind and must not burn an LSN a
// later acknowledged submission silently collides with.
func TestWALStoreFsyncFailureDoesNotLoseNextJob(t *testing.T) {
	t.Cleanup(func() { faultinject.Activate("") })
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	if err := faultinject.Activate("wal.sync=error"); err != nil {
		t.Fatal(err)
	}
	if err := st.JournalSubmit(testRecord("job-000001")); err == nil {
		t.Fatal("submit under fsync failure succeeded, want error")
	}
	faultinject.Activate("")
	if err := st.JournalSubmit(testRecord("job-000002")); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, rec := openStore(t, dir)
	defer st2.Close()
	if len(rec.Jobs) != 1 || rec.Jobs[0].ID != "job-000002" {
		t.Fatalf("recovered %+v, want exactly the acknowledged job-000002 (rejected job gone, acknowledged job kept)", rec.Jobs)
	}
	if rec.Skipped != 0 || rec.Unreplayable != 0 {
		t.Errorf("recovery reported skipped=%d unreplayable=%d, want 0/0", rec.Skipped, rec.Unreplayable)
	}
}

// TestWALStoreDuplicateLSNLastWriterWins hand-crafts the disk image of
// a failed append whose rollback never reached the disk: the rejected
// frame survived at LSN 1 and the next acknowledged submission reused
// the number. Replay must apply both records (last-writer-wins), not
// silently drop the acknowledged one.
func TestWALStoreDuplicateLSNLastWriterWins(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ghost, acked := testRecord("job-000001"), testRecord("job-000002")
	for _, r := range []walRecord{
		{LSN: 1, T: "submit", Job: &ghost},
		{LSN: 1, T: "submit", Job: &acked},
		{LSN: 2, T: "state", ID: "job-000002", State: StateRunning, TS: time.Unix(1700000003, 0).UTC()},
	} {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, rec := openStore(t, dir)
	defer st.Close()
	var got *JobRecord
	for i := range rec.Jobs {
		if rec.Jobs[i].ID == "job-000002" {
			got = &rec.Jobs[i]
		}
	}
	if got == nil || got.State != StateRunning {
		t.Fatalf("acknowledged job-000002 lost to the duplicate LSN: recovered %+v", rec.Jobs)
	}
	// New appends must continue past the replayed maximum.
	if err := st.JournalSubmit(testRecord("job-000003")); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, rec2 := openStore(t, dir)
	defer st2.Close()
	if len(rec2.Jobs) != 3 {
		t.Fatalf("recovered %d jobs after post-replay submit, want 3", len(rec2.Jobs))
	}
}

// TestWALStoreShutdownMarkerSurvivesAggressiveCompaction: with
// compactMin=1 and an empty table, the shutdown compaction writes a
// snapshot shorter than the marker, so the marker alone fills the log
// past the next trigger. Its append must still not compact, which
// would truncate it and turn a clean shutdown into an unclean replay.
func TestWALStoreShutdownMarkerSurvivesAggressiveCompaction(t *testing.T) {
	dir := t.TempDir()
	st, _ := openStore(t, dir, func(o *WALStoreOptions) { o.compactMin = 1 })
	if err := st.JournalSubmit(testRecord("job-000001")); err != nil {
		t.Fatal(err)
	}
	must(st.JournalState("job-000001", StateDone, "", "", time.Unix(1700000001, 0).UTC()))
	prune(t, st, "job-000001")
	if err := st.shutdown(); err != nil {
		t.Fatal(err)
	}
	logBytes, compactAt := st.log.LogBytes(), st.compactAt
	st.Close()
	st2, rec := openStore(t, dir)
	defer st2.Close()
	if !rec.CleanShutdown {
		t.Error("shutdown marker lost to the compaction it triggered itself")
	} else if logBytes < compactAt {
		t.Errorf("the marker filled the log to %d bytes, short of the trigger at %d: the test no longer shows anything", logBytes, compactAt)
	}
	if len(rec.Jobs) != 0 {
		t.Fatalf("recovered %+v, want the empty table", rec.Jobs)
	}
}

// TestWALStoreInjectedJournalError checks the jobs.journal fault point
// makes writes fail visibly — and that the store stays usable after
// the fault clears.
func TestWALStoreInjectedJournalError(t *testing.T) {
	t.Cleanup(func() { faultinject.Activate("") })
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	if err := faultinject.Activate("jobs.journal=error@2"); err != nil {
		t.Fatal(err)
	}
	if err := st.JournalSubmit(testRecord("job-000001")); err != nil {
		t.Fatal(err)
	}
	if err := st.JournalSubmit(testRecord("job-000002")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected journal write = %v, want ErrInjected", err)
	}
	if st.JournalErrors() != 1 {
		t.Errorf("JournalErrors = %d, want 1", st.JournalErrors())
	}
	if err := st.JournalSubmit(testRecord("job-000003")); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, rec := openStore(t, dir)
	defer st2.Close()
	if len(rec.Jobs) != 2 {
		t.Fatalf("recovered %d jobs, want 2 (the faulted write must not be durable)", len(rec.Jobs))
	}
}

// TestWALStoreFailedCompactionWaitsForGrowth arms wal.snapshot.write to
// fail every time under the most aggressive trigger (compactMin=1:
// compact whenever the log reaches the last snapshot's size). A failed
// compaction must wait for that much more log before the next attempt,
// not retry on every append: each attempt encodes every job so far, and
// a job's submit record is a little longer than its snapshot entry, so
// the table nearly doubles between attempts and 50 submissions make at
// most 8 (7 here; the trigger that once retried on every append made
// 46). Once the
// fault clears, the next attempt succeeds and resets the trigger: the
// log starts empty and the following append does not compact.
func TestWALStoreFailedCompactionWaitsForGrowth(t *testing.T) {
	t.Cleanup(func() { faultinject.Activate("") })
	st, _ := openStore(t, t.TempDir(), func(o *WALStoreOptions) { o.compactMin = 1 })
	defer st.Close()
	if err := faultinject.Activate("wal.snapshot.write=error"); err != nil {
		t.Fatal(err)
	}
	next := 0
	submit := func() {
		t.Helper()
		next++
		if err := st.JournalSubmit(testRecord(fmt.Sprintf("job-%06d", next))); err != nil {
			t.Fatal(err)
		}
	}
	for next < 50 {
		submit()
	}
	attempts := st.JournalErrors() // every failed compaction counts one
	t.Logf("50 submissions, %d failed compaction attempts", attempts)
	if attempts < 2 || attempts > 8 {
		t.Errorf("50 submissions made %d failed compaction attempts, want 2..8", attempts)
	}
	if s := st.log.Stats(); s.Snapshots != 0 || s.Appends != 50 {
		t.Fatalf("with the fault armed: %d snapshots, %d appends; want 0, 50", s.Snapshots, s.Appends)
	}

	faultinject.Activate("")
	for st.log.Stats().Snapshots == 0 {
		if next == 200 {
			t.Fatal("no compaction succeeded within 150 submissions of the fault clearing")
		}
		submit()
	}
	if got := st.JournalErrors(); got != attempts {
		t.Errorf("journal errors moved from %d to %d after the fault cleared", attempts, got)
	}
	st.mu.Lock()
	logBytes, compactAt, snapBytes := st.log.LogBytes(), st.compactAt, st.snapBytes
	st.mu.Unlock()
	if logBytes != 0 || compactAt != snapBytes {
		t.Errorf("after the successful compaction: log %d bytes, next trigger at %d; want 0 and the snapshot's %d bytes",
			logBytes, compactAt, snapBytes)
	}
	submit()
	if s := st.log.Stats(); s.Snapshots != 1 {
		t.Errorf("the append after a successful compaction compacted again (%d snapshots)", s.Snapshots)
	}
}
