package hausdorff

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// digestRecorded digests path through a fresh FileRef so that the
// digest cache records it, as admission of a settled file does, and
// returns the ref. It settles the file without waiting out the racy
// window: path's mtime goes an hour back (a later write to it moves
// the mtime its identity was recorded with), and the cache's clock runs
// an hour ahead for the rest of the test.
func digestRecorded(t *testing.T, path string) *traj.Ref {
	t.Helper()
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, past, past); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(traj.SetDigestClock(func() time.Time { return time.Now().Add(time.Hour) }))
	r, err := traj.FileRef(path)
	if err != nil {
		t.Fatal(err)
	}
	before := traj.FileDigestStats()
	if _, err := r.Digest(); err != nil {
		t.Fatal(err)
	}
	if now := traj.FileDigestStats(); now.Racy != before.Racy || now.Misses+now.Hits == before.Misses+before.Hits {
		t.Fatalf("%s: digest not recorded (%+v, then %+v)", path, before, now)
	}
	return r
}

// streamedAgrees runs every method streamed over a and b at window 3
// and requires the bits DistanceCounted returns in memory on want
// (a's and b's loaded content). It returns the window-statistics
// traffic of the streamed runs.
func streamedAgrees(t *testing.T, label string, a, b *traj.Ref, wantA, wantB *traj.Trajectory) (sketched, computed int64) {
	t.Helper()
	before := traj.FileDigestStats()
	for _, m := range Methods {
		var c Counters
		want := DistanceCounted(wantA, wantB, m, &c)
		got, err := DistanceStreamed(a, b, 3, m, &Counters{}, &StreamStats{})
		if err != nil {
			t.Fatalf("%s/%v: %v", label, m, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s/%v: streamed %v, in memory %v", label, m, got, want)
		}
	}
	now := traj.FileDigestStats()
	return now.WindowStatsSketched - before.WindowStatsSketched, now.WindowStatsComputed - before.WindowStatsComputed
}

// TestStreamedSketchTrust: a streamed comparison of digested, settled
// files serves every window's statistics from their sketches; once one
// file is rewritten in place at the same size, its windows compute,
// and every method still returns the in-memory bits of the new
// content. A file digested while racy records no sketch and computes
// the same bits.
func TestStreamedSketchTrust(t *testing.T) {
	dir := t.TempDir()
	ens := synth.PathEnsemble(3, 6, 10, 17)
	paths := make([]string, len(ens))
	for i, tr := range ens {
		paths[i] = filepath.Join(dir, tr.Name+".mdt")
		if err := traj.WriteMDTFile(paths[i], tr, 8); err != nil {
			t.Fatal(err)
		}
	}
	a, b := digestRecorded(t, paths[0]), digestRecorded(t, paths[1])
	if s, c := streamedAgrees(t, "sketched", a, b, ens[0], ens[1]); s == 0 || c != 0 {
		t.Fatalf("sketched files: %d window frames sketched, %d computed", s, c)
	}

	// Rewrite a with the third trajectory's bytes: same shape, same size.
	blob, err := os.ReadFile(paths[2])
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(paths[0], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(blob, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if s, c := streamedAgrees(t, "rewritten", a, b, ens[2], ens[1]); s == 0 || c == 0 {
		t.Fatalf("one file rewritten: %d window frames sketched, %d computed; want both", s, c)
	}

	// A file digested the moment it is written: the cache's clock
	// stands at the file's mtime, inside the racy window.
	racy := filepath.Join(dir, "racy.mdt")
	if err := traj.WriteMDTFile(racy, ens[0], 8); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(racy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(traj.SetDigestClock(st.ModTime))
	r, err := traj.FileRef(racy)
	if err != nil {
		t.Fatal(err)
	}
	before := traj.FileDigestStats()
	if _, err := r.Digest(); err != nil {
		t.Fatal(err)
	}
	if traj.FileDigestStats().Racy == before.Racy {
		t.Fatal("a file digested at its own mtime was recorded")
	}
	if s, c := streamedAgrees(t, "racy", r, b, ens[0], ens[1]); s == 0 || c == 0 {
		t.Fatalf("one racy file: %d window frames sketched, %d computed; want both", s, c)
	}
}

// Concurrent folds over the same sketched files share one sketch per
// file and recycle window slots through one pool; under -race (make
// race) this is the test that would see a write to either.
func TestStreamedSketchSharedByConcurrentFolds(t *testing.T) {
	dir := t.TempDir()
	ens := synth.PathEnsemble(2, 5, 12, 29)
	refs := make([]*traj.Ref, len(ens))
	for i, tr := range ens {
		path := filepath.Join(dir, tr.Name+".mdt")
		if err := traj.WriteMDTFile(path, tr, 4); err != nil {
			t.Fatal(err)
		}
		refs[i] = digestRecorded(t, path)
	}
	la, err := refs[0].Load()
	if err != nil {
		t.Fatal(err)
	}
	lb, err := refs[1].Load()
	if err != nil {
		t.Fatal(err)
	}
	before := traj.FileDigestStats()
	errs := make(chan error, 4*len(Methods))
	for g := range 4 {
		for _, m := range Methods {
			go func() {
				want := DistanceCounted(la, lb, m, &Counters{})
				got, err := DistanceStreamed(refs[0], refs[1], 1+g, m, &Counters{}, &StreamStats{})
				if err == nil && math.Float64bits(got) != math.Float64bits(want) {
					err = fmt.Errorf("%v/w=%d: streamed %v, in memory %v", m, 1+g, got, want)
				}
				errs <- err
			}()
		}
	}
	for range 4 * len(Methods) {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if now := traj.FileDigestStats(); now.WindowStatsComputed != before.WindowStatsComputed {
		t.Errorf("%d window frames computed their statistics beside a recorded sketch", now.WindowStatsComputed-before.WindowStatsComputed)
	}
}
