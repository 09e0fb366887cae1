package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mdtask/internal/faultinject"
)

func openT(t *testing.T, dir string) (*Log, Recovery) {
	t.Helper()
	l, rec, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, rec
}

func appendAll(t *testing.T, l *Log, recs [][]byte) {
	t.Helper()
	for i, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append(#%d): %v", i, err)
		}
	}
}

func mkRecords(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		b := make([]byte, 1+rng.Intn(200))
		rng.Read(b)
		out[i] = b
	}
	return out
}

func sameRecords(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recs := mkRecords(50, 1)
	l, rec := openT(t, dir)
	if rec.Snapshot != nil || len(rec.Records) != 0 || rec.Skipped != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec2 := openT(t, dir)
	defer l2.Close()
	if !sameRecords(rec2.Records, recs) {
		t.Fatalf("recovered %d records, want %d identical", len(rec2.Records), len(recs))
	}
	if rec2.Skipped != 0 {
		t.Fatalf("healthy log skipped %d records", rec2.Skipped)
	}
}

// TestTornTailAtEveryByte is the crash-point sweep: for a log of known
// records, truncating the file at EVERY byte offset must recover
// exactly the records whose frames are complete, count at most one
// skipped region, and leave the log appendable (the torn tail is
// truncated away so a post-recovery append round-trips).
func TestTornTailAtEveryByte(t *testing.T) {
	src := t.TempDir()
	recs := mkRecords(8, 2)
	l, _ := openT(t, src)
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(src, logName))
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries, to know how many records each prefix holds.
	bounds := []int{0}
	for pos := 0; pos < len(data); {
		n := int(uint32(data[pos]) | uint32(data[pos+1])<<8 | uint32(data[pos+2])<<16 | uint32(data[pos+3])<<24)
		pos += headerSize + n
		bounds = append(bounds, pos)
	}
	complete := func(cut int) int {
		n := 0
		for _, b := range bounds[1:] {
			if b <= cut {
				n++
			}
		}
		return n
	}

	for cut := 0; cut <= len(data); cut++ {
		dir := filepath.Join(t.TempDir(), "cut")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, logName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, rec := openT(t, dir)
		want := complete(cut)
		if len(rec.Records) != want {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(rec.Records), want)
		}
		if !sameRecords(rec.Records, recs[:want]) {
			t.Fatalf("cut=%d: recovered records differ from the original prefix", cut)
		}
		torn := cut != bounds[want]
		if torn && rec.Skipped != 1 {
			t.Fatalf("cut=%d: torn tail counted %d skips, want 1", cut, rec.Skipped)
		}
		if !torn && rec.Skipped != 0 {
			t.Fatalf("cut=%d: clean boundary counted %d skips, want 0", cut, rec.Skipped)
		}
		// The log must be appendable after recovery, on a clean boundary.
		extra := []byte("post-recovery")
		if err := l2.Append(extra); err != nil {
			t.Fatalf("cut=%d: post-recovery append: %v", cut, err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		l3, rec3 := openT(t, dir)
		if err := l3.Close(); err != nil {
			t.Fatal(err)
		}
		wantAll := append(append([][]byte{}, recs[:want]...), extra)
		if !sameRecords(rec3.Records, wantAll) || rec3.Skipped != 0 {
			t.Fatalf("cut=%d: reopen after append: %d records (skipped %d), want %d clean",
				cut, len(rec3.Records), rec3.Skipped, len(wantAll))
		}
	}
}

// TestBitFlipSkipsOneRecord flips a payload byte of a middle record:
// recovery must skip exactly that record, keep both neighbours, and
// count the skip.
func TestBitFlipSkipsOneRecord(t *testing.T) {
	dir := t.TempDir()
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	l, _ := openT(t, dir)
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the first payload byte of record 1 (after frame 0 and its
	// header).
	off := headerSize + len(recs[0]) + headerSize
	data[off] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, dir)
	defer l2.Close()
	want := [][]byte{recs[0], recs[2]}
	if !sameRecords(rec.Records, want) {
		t.Fatalf("recovered %d records after bit flip, want alpha+gamma", len(rec.Records))
	}
	if rec.Skipped != 1 {
		t.Fatalf("bit flip counted %d skips, want 1", rec.Skipped)
	}
}

func TestCompactReplacesSnapshotAndResetsLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	appendAll(t, l, mkRecords(10, 3))
	if err := l.Compact([]byte("state-1")); err != nil {
		t.Fatal(err)
	}
	post := [][]byte{[]byte("after-1"), []byte("after-2")}
	appendAll(t, l, post)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, dir)
	defer l2.Close()
	if string(rec.Snapshot) != "state-1" {
		t.Fatalf("snapshot = %q, want state-1", rec.Snapshot)
	}
	if !sameRecords(rec.Records, post) || rec.Skipped != 0 {
		t.Fatalf("recovered %d records after compaction, want the 2 post-snapshot ones", len(rec.Records))
	}
}

// TestCrashBetweenSnapshotAndTruncate arms the fault point in the
// compaction window where the new snapshot is durable but the log has
// not been reset: recovery must surface the new snapshot AND the old
// records (the caller's replay layer makes re-applying them a no-op).
func TestCrashBetweenSnapshotAndTruncate(t *testing.T) {
	t.Cleanup(func() { faultinject.Activate("") })
	dir := t.TempDir()
	recs := mkRecords(5, 4)
	l, _ := openT(t, dir)
	appendAll(t, l, recs)
	if err := faultinject.Activate("wal.compact.truncate=error"); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact([]byte("state-2")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Compact under injection = %v, want ErrInjected", err)
	}
	faultinject.Activate("")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, dir)
	defer l2.Close()
	if string(rec.Snapshot) != "state-2" {
		t.Fatalf("snapshot = %q, want state-2 (rename happened before the crash)", rec.Snapshot)
	}
	if !sameRecords(rec.Records, recs) {
		t.Fatalf("pre-snapshot records lost: got %d, want %d", len(rec.Records), len(recs))
	}
}

// TestInjectedPartialAppendRecovers arms the torn-write fault: Append
// fails after half a frame hits the disk, and a fresh Open recovers
// every previous record, counts one skip, and truncates the tail.
func TestInjectedPartialAppendRecovers(t *testing.T) {
	t.Cleanup(func() { faultinject.Activate("") })
	dir := t.TempDir()
	recs := mkRecords(4, 5)
	l, _ := openT(t, dir)
	appendAll(t, l, recs)
	if err := faultinject.Activate("wal.append=partial"); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("doomed-record-payload")); !errors.Is(err, faultinject.ErrPartial) {
		t.Fatalf("Append under partial injection = %v, want ErrPartial", err)
	}
	faultinject.Activate("")
	l2, rec := openT(t, dir)
	defer l2.Close()
	if !sameRecords(rec.Records, recs) {
		t.Fatalf("recovered %d records, want the %d acknowledged ones", len(rec.Records), len(recs))
	}
	if rec.Skipped != 1 {
		t.Fatalf("torn write counted %d skips, want 1", rec.Skipped)
	}
}

func TestInjectedAppendErrorLeavesLogClean(t *testing.T) {
	t.Cleanup(func() { faultinject.Activate("") })
	for _, w := range []struct {
		name  string
		write func(*Log, []byte) error
	}{{"Append", (*Log).Append}, {"AppendNoSync", (*Log).AppendNoSync}} {
		dir := t.TempDir()
		l, _ := openT(t, dir)
		if err := l.Append([]byte("ok-1")); err != nil {
			t.Fatal(err)
		}
		if err := faultinject.Activate("wal.append=error"); err != nil {
			t.Fatal(err)
		}
		if err := w.write(l, []byte("rejected")); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("%s under error injection = %v", w.name, err)
		}
		faultinject.Activate("")
		if got := l.Stats().Appends; got != 1 {
			t.Fatalf("%s: appends = %d after a rejected write, want 1", w.name, got)
		}
		if err := l.Append([]byte("ok-2")); err != nil {
			t.Fatalf("%s: append after recovered injection: %v", w.name, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, rec := openT(t, dir)
		if !sameRecords(rec.Records, [][]byte{[]byte("ok-1"), []byte("ok-2")}) || rec.Skipped != 0 {
			t.Fatalf("%s: log after injected error: %d records, skipped %d", w.name, len(rec.Records), rec.Skipped)
		}
	}
}

// TestSyncFailureRollsBackFrame arms the wal.sync fault point: an
// Append whose post-write fsync fails must roll its frame back, so the
// rejected record cannot resurface at the next recovery (and a caller
// reusing its sequence number cannot collide with a ghost frame). The
// unsynced frames written before it are not its own and stay.
func TestSyncFailureRollsBackFrame(t *testing.T) {
	t.Cleanup(func() { faultinject.Activate("") })
	dir := t.TempDir()
	l, _ := openT(t, dir)
	if err := l.Append([]byte("ok-1")); err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"nosync-1", "nosync-2"} {
		if err := l.AppendNoSync([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := faultinject.Activate("wal.sync=error"); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("ghost")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Append under fsync failure = %v, want ErrInjected", err)
	}
	faultinject.Activate("")
	if err := l.Append([]byte("ok-2")); err != nil {
		t.Fatalf("append after recovered fsync failure: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openT(t, dir)
	want := [][]byte{[]byte("ok-1"), []byte("nosync-1"), []byte("nosync-2"), []byte("ok-2")}
	if !sameRecords(rec.Records, want) || rec.Skipped != 0 {
		t.Fatalf("log after failed fsync: %d records, skipped %d — want the %d written before and after it, not the failed frame",
			len(rec.Records), rec.Skipped, len(want))
	}
}

// TestAppendNoSync checks AppendNoSync's accounting and when its frames
// reach the disk: it counts in Appends but issues no fsync, and each of
// Append, Sync, Compact and Close then issues exactly one fsync that
// covers the frames written before it, which a reopen recovers (for
// Compact, through the snapshot that replaced them).
func TestAppendNoSync(t *testing.T) {
	for _, tc := range []struct {
		name string
		sync func(*Log) error
		want []string // records a reopen recovers after tc.sync
	}{
		{"Append", func(l *Log) error { return l.Append([]byte("synced")) }, []string{"a", "b", "synced"}},
		{"Sync", (*Log).Sync, []string{"a", "b"}},
		{"Compact", func(l *Log) error { return l.Compact([]byte("state")) }, nil},
		{"Close", (*Log).Close, []string{"a", "b"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openT(t, dir)
			for _, r := range []string{"a", "b"} {
				if err := l.AppendNoSync([]byte(r)); err != nil {
					t.Fatal(err)
				}
			}
			if st := l.Stats(); st.Appends != 2 || st.Syncs != 0 {
				t.Fatalf("after two AppendNoSync: appends = %d, syncs = %d, want 2 and 0", st.Appends, st.Syncs)
			}
			if err := tc.sync(l); err != nil {
				t.Fatal(err)
			}
			if st := l.Stats(); st.Syncs != 1 {
				t.Fatalf("%s issued %d fsyncs, want 1", tc.name, st.Syncs)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, rec := openT(t, dir)
			want := make([][]byte, len(tc.want))
			for i, r := range tc.want {
				want[i] = []byte(r)
			}
			if !sameRecords(rec.Records, want) || rec.Skipped != 0 {
				t.Fatalf("reopen after %s recovered %q (skipped %d), want %q", tc.name, rec.Records, rec.Skipped, tc.want)
			}
			if tc.name == "Compact" && string(rec.Snapshot) != "state" {
				t.Fatalf("snapshot = %q, want state", rec.Snapshot)
			}
		})
	}
}

// TestHeaderCorruptionResyncs flips every byte of a middle record's
// header in turn: whether the damage lands in the length or the CRC
// field, recovery must lose only that record — the scan resynchronizes
// at the next valid frame instead of truncating the rest of the log —
// and must report the skipped region with its byte size.
func TestHeaderCorruptionResyncs(t *testing.T) {
	src := t.TempDir()
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma"), []byte("delta")}
	l, _ := openT(t, src)
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(src, logName))
	if err != nil {
		t.Fatal(err)
	}
	start := (headerSize + len(recs[0])) + (headerSize + len(recs[1])) // record 2's header
	want := [][]byte{recs[0], recs[1], recs[3]}
	for b := 0; b < headerSize; b++ {
		dir := filepath.Join(t.TempDir(), "flip")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		mut := append([]byte(nil), data...)
		mut[start+b] ^= 0xFF
		if err := os.WriteFile(filepath.Join(dir, logName), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		l2, rec := openT(t, dir)
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		if !sameRecords(rec.Records, want) {
			t.Fatalf("header byte %d flipped: recovered %d records, want all but the damaged one", b, len(rec.Records))
		}
		if rec.Skipped != 1 {
			t.Errorf("header byte %d flipped: skipped = %d, want 1", b, rec.Skipped)
		}
		if rec.SkippedBytes != int64(headerSize+len(recs[2])) {
			t.Errorf("header byte %d flipped: skipped bytes = %d, want the one damaged frame (%d)",
				b, rec.SkippedBytes, headerSize+len(recs[2]))
		}
	}
}

// TestReplayDeterministic: opening the same directory twice (read-only
// crash replay) yields byte-identical recoveries.
func TestReplayDeterministic(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	appendAll(t, l, mkRecords(20, 6))
	if err := l.Compact([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mkRecords(7, 7))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec1 := openT(t, dir)
	_, rec2 := openT(t, dir)
	if !bytes.Equal(rec1.Snapshot, rec2.Snapshot) || !sameRecords(rec1.Records, rec2.Records) || rec1.Skipped != rec2.Skipped {
		t.Fatal("two recoveries of the same directory differ")
	}
}

func TestCorruptSnapshotIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	if err := l.Compact([]byte("precious")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted a corrupt snapshot")
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncNever} {
		t.Run(string(p), func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := Open(Options{Dir: dir, Sync: p})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			st := l.Stats()
			if st.Appends != 5 {
				t.Fatalf("appends = %d, want 5", st.Appends)
			}
			if p == SyncAlways && st.Syncs != 5 {
				t.Fatalf("always: syncs = %d, want 5", st.Syncs)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, rec := openT(t, dir)
			if len(rec.Records) != 5 {
				t.Fatalf("recovered %d records, want 5", len(rec.Records))
			}
		})
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted garbage")
	}
	if p, err := ParseSyncPolicy(""); err != nil || p != SyncAlways {
		t.Fatalf("ParseSyncPolicy(\"\") = %v, %v", p, err)
	}
}
