package traj

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Windows served from a recorded sketch: the same bits as Pack of the
// loaded trajectory and as a reader that computes, and only ever for
// the bytes the sketch was computed from.

// statsDelta is the window-statistics traffic since before.
func statsDelta(before DigestCacheStats) (sketched, computed int64) {
	now := FileDigestStats()
	return now.WindowStatsSketched - before.WindowStatsSketched, now.WindowStatsComputed - before.WindowStatsComputed
}

// readerSketched reports whether a reader's windows are served from a
// sketch; it opens the reader's source if it has not yet.
func readerSketched(t *testing.T, wr *WindowReader) bool {
	t.Helper()
	if _, err := wr.Window(0); err != nil {
		t.Fatal(err)
	}
	return wr.fr.stats() != nil
}

// sameAsPack reads every window of ref at every size 1…nFrames+1 (size
// 1 is the fold's probe reader), in a forward then a backward order,
// and requires the bits of Pack of want's frames. It returns the
// frames it read.
func sameAsPack(t *testing.T, label string, ref *Ref, want *Trajectory) int64 {
	t.Helper()
	p := Pack(want)
	var frames int64
	for size := 1; size <= want.NFrames()+1; size++ {
		wr := ref.WindowReader(size)
		nw := wr.NumWindows()
		order := make([]int, 0, 2*nw)
		for k := range nw {
			order = append(order, k)
		}
		for k := nw - 1; k >= 0; k-- {
			order = append(order, k)
		}
		for _, k := range order {
			w, err := wr.Window(k)
			if err != nil {
				t.Fatalf("%s/size=%d: window %d: %v", label, size, k, err)
			}
			start := k * wr.Size()
			n := min(wr.Size(), want.NFrames()-start)
			sameWindow(t, fmt.Sprintf("%s/size=%d/window %d", label, size, k), w, &Packed{
				NAtoms: p.NAtoms, NFrames: n,
				Coords:    p.Coords[start*p.NAtoms*3 : (start+n)*p.NAtoms*3],
				Centroids: p.Centroids[start : start+n],
				RadGyr:    p.RadGyr[start : start+n],
			}, start)
			frames += int64(n)
		}
		wr.Close()
	}
	return frames
}

// recordSketch settles path and digests it through a fresh FileRef, so
// that the digest cache holds its sketch.
func recordSketch(t *testing.T, path string) *Ref {
	t.Helper()
	settle(t, fileDigests, path)
	r, err := FileRef(path)
	if err != nil {
		t.Fatal(err)
	}
	before := FileDigestStats()
	if _, err := r.Digest(); err != nil {
		t.Fatal(err)
	}
	if got := cacheDelta(before); got.Racy != 0 {
		t.Fatalf("%s: settled file not recorded: %+v", path, got)
	}
	return r
}

// TestSketchedWindowsMatchPack is the property over window sizes: for
// several shapes (one frame, one atom, zero atoms, a short tail) at
// both precisions, every window a sketched reader serves equals Pack
// of the loaded trajectory bit for bit, as does every window of a
// reader over an undigested copy of the same bytes, which computes.
func TestSketchedWindowsMatchPack(t *testing.T) {
	dir := t.TempDir()
	type file struct{ path, copy string }
	var files []file
	for _, shape := range [][2]int{{1, 1}, {1, 6}, {0, 4}, {5, 11}, {7, 16}} {
		tr := fuzzTraj(shape[0], shape[1], uint64(3+shape[0]*shape[1]))
		for _, prec := range []int{4, 8} {
			name := fmt.Sprintf("%dx%d-f%d", shape[0], shape[1], prec)
			f := file{filepath.Join(dir, name+".mdt"), filepath.Join(dir, name+"-copy.mdt")}
			if err := WriteMDTFile(f.path, tr, prec); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(f.path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(f.copy, b, 0o644); err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
	}
	for _, f := range files {
		label := filepath.Base(f.path)
		sketched := recordSketch(t, f.path)
		loaded, err := sketched.Load()
		if err != nil {
			t.Fatal(err)
		}
		if wr := sketched.WindowReader(0); !readerSketched(t, wr) {
			t.Fatalf("%s: digested, settled file carries no sketch", label)
		} else {
			wr.Close()
		}
		before := FileDigestStats()
		n := sameAsPack(t, label+"/sketched", sketched, loaded)
		if s, c := statsDelta(before); s != n || c != 0 {
			t.Fatalf("%s: %d frames read; %d sketched, %d computed", label, n, s, c)
		}

		computing, err := FileRef(f.copy)
		if err != nil {
			t.Fatal(err)
		}
		if wr := computing.WindowReader(0); readerSketched(t, wr) {
			t.Fatalf("%s: an undigested copy carries a sketch", label)
		} else {
			wr.Close()
		}
		before = FileDigestStats()
		n = sameAsPack(t, label+"/computed", computing, loaded)
		if s, c := statsDelta(before); s != 0 || c != n {
			t.Fatalf("%s copy: %d frames read; %d sketched, %d computed", label, n, s, c)
		}
	}
}

// TestSketchRewriteComputes rewrites a digested file in place, same
// size, after its sketch was recorded: the identity moves, so a
// reader must compute the new content's statistics, and the windows
// are those of the new content.
func TestSketchRewriteComputes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.mdt")
	if err := WriteMDTFile(path, fuzzTraj(4, 9, 1), 8); err != nil {
		t.Fatal(err)
	}
	ref := recordSketch(t, path)
	if wr := ref.WindowReader(3); !readerSketched(t, wr) {
		t.Fatal("digested, settled file carries no sketch")
	} else {
		wr.Close()
	}
	next := fuzzTraj(4, 9, 2)
	b, err := EncodeMDT(next, 8)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(b, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := ref.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !trajEqual(loaded, next, 0) {
		t.Fatal("rewrite did not take")
	}
	// The same ref, built and digested before the rewrite.
	if wr := ref.WindowReader(3); readerSketched(t, wr) {
		t.Fatal("rewritten file served the old content's sketch")
	} else {
		wr.Close()
	}
	before := FileDigestStats()
	n := sameAsPack(t, "rewritten", ref, next)
	if s, c := statsDelta(before); s != 0 || c != n {
		t.Fatalf("%d frames read; %d sketched, %d computed", n, s, c)
	}
}

// TestSketchRacyFileComputes digests a file straight after writing it:
// the racy rule records neither its digest nor its sketch, and its
// windows compute the same bits.
func TestSketchRacyFileComputes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.mdt")
	tr := fuzzTraj(3, 7, 4)
	if err := WriteMDTFile(path, tr, 4); err != nil {
		t.Fatal(err)
	}
	ref, err := FileRef(path)
	if err != nil {
		t.Fatal(err)
	}
	before := FileDigestStats()
	if _, err := ref.Digest(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(st.ModTime()) >= fineTimestamps {
		t.Skip("the file left the racy window before it was digested")
	}
	if got := cacheDelta(before); got.Racy != 1 {
		t.Fatalf("digest of a file written within the racy window: %+v", got)
	}
	if wr := ref.WindowReader(2); readerSketched(t, wr) {
		t.Fatal("racy file carries a sketch")
	} else {
		wr.Close()
	}
	loaded, err := ref.Load()
	if err != nil {
		t.Fatal(err)
	}
	before = FileDigestStats()
	n := sameAsPack(t, "racy", ref, loaded)
	if s, c := statsDelta(before); s != 0 || c != n {
		t.Fatalf("%d frames read; %d sketched, %d computed", n, s, c)
	}
}
