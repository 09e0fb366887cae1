package traj

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdtask/internal/linalg"
)

// windowBackings builds one ref per backing a WindowReader serves —
// memory (packed and not yet packed), plain .mdt at both precisions,
// .mdt.gz, .xyzt and a window chain — over the same source trajectory.
func windowBackings(t *testing.T, tr *Trajectory, chainWindow int) map[string]*Ref {
	t.Helper()
	dir := t.TempDir()
	out := map[string]*Ref{}
	fileRef := func(name string, write func(path string) error) {
		path := filepath.Join(dir, name)
		if err := write(path); err != nil {
			t.Fatal(err)
		}
		r, err := FileRef(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = r
	}
	fileRef("f64.mdt", func(p string) error { return WriteMDTFile(p, tr, 8) })
	fileRef("f32.mdt", func(p string) error { return WriteMDTFile(p, tr, 4) })
	fileRef("z.mdt.gz", func(p string) error { return WriteMDTGZFile(p, tr, 8) })
	fileRef("text.xyzt", func(p string) error { return WriteXYZTFile(p, tr) })

	packed := tr.Clone()
	packed.Packed()
	out["mem-packed"] = MemRef(packed)
	out["mem-unpacked"] = MemRef(tr.Clone())

	mem := MemRef(tr)
	chain, err := WindowChainRef(tr.Name, tr.NAtoms, tr.NFrames(), chainWindow, func(win int) ([]byte, error) {
		return mem.EncodeMDTWindow(win*chainWindow, chainWindow, 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	out["chain"] = chain
	return out
}

// packedWindow is the reference a decoded window must equal: PackFrames
// of the corresponding loaded frames.
func packedWindow(loaded *Trajectory, start, n int) *Packed {
	frames := make([][]linalg.Vec3, n)
	for i := range frames {
		frames[i] = loaded.Frames[start+i].Coords
	}
	return PackFrames(frames, loaded.NAtoms)
}

func sameWindow(t *testing.T, label string, got *Window, want *Packed, start int) {
	t.Helper()
	if got.Start != start || got.NFrames() != want.NFrames {
		t.Fatalf("%s: window [%d,+%d), want [%d,+%d)", label, got.Start, got.NFrames(), start, want.NFrames)
	}
	p := got.Packed
	if len(p.Coords) != len(want.Coords) {
		t.Fatalf("%s: %d coords, want %d", label, len(p.Coords), len(want.Coords))
	}
	for i := range want.Coords {
		if math.Float64bits(p.Coords[i]) != math.Float64bits(want.Coords[i]) {
			t.Fatalf("%s: coord %d = %v, want %v", label, i, p.Coords[i], want.Coords[i])
		}
	}
	for i := 0; i < want.NFrames; i++ {
		if p.Centroids[i] != want.Centroids[i] {
			t.Fatalf("%s: frame %d centroid %v, want %v", label, i, p.Centroids[i], want.Centroids[i])
		}
		if math.Float64bits(p.RadGyr[i]) != math.Float64bits(want.RadGyr[i]) {
			t.Fatalf("%s: frame %d rg %v, want %v", label, i, p.RadGyr[i], want.RadGyr[i])
		}
	}
	if p.StepDRMS != nil {
		t.Fatalf("%s: window carries a StepDRMS chain", label)
	}
}

// Window k by random access — in any order, across backward jumps,
// including the short tail window — equals PackFrames of the loaded
// frames bit for bit, for every backing and for reader sizes that do
// and do not match a chain's blob size.
func TestWindowReaderMatchesPackFrames(t *testing.T) {
	tr := fuzzTraj(5, 11, 77)
	for name, ref := range windowBackings(t, tr, 4) {
		loaded, err := ref.Load()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, size := range []int{1, 3, 4, 11, 50, 0} {
			rd := ref.WindowReader(size)
			nw := rd.NumWindows()
			if want := ref.NumWindows(size); nw != want {
				t.Fatalf("%s/size=%d: reader spans %d windows, ref says %d", name, size, nw, want)
			}
			// Forward, backward, repeated, and the tail twice.
			order := []int{nw - 1, 0, nw / 2, nw - 1, 0}
			for k := 0; k < nw; k++ {
				order = append(order, k)
			}
			for _, k := range order {
				w, err := rd.Window(k)
				if err != nil {
					t.Fatalf("%s/size=%d: window %d: %v", name, size, k, err)
				}
				start := k * rd.Size()
				n := min(rd.Size(), loaded.NFrames()-start)
				sameWindow(t, name, w, packedWindow(loaded, start, n), start)
			}
			if _, err := rd.Window(nw); err == nil {
				t.Fatalf("%s/size=%d: window %d past the end accepted", name, size, nw)
			}
			rd.Close()
			// A closed reader re-opens on demand.
			if w, err := rd.Window(0); err != nil || w.Start != 0 {
				t.Fatalf("%s/size=%d: window after Close: %v", name, size, err)
			}
			rd.Close()
		}
	}
}

// A window stays valid until its reader's slot is reused: other readers
// over the same ref do not disturb it, the reader's next Window call
// does.
func TestWindowValidUntilSlotReuse(t *testing.T) {
	tr := fuzzTraj(4, 9, 5)
	for name, ref := range windowBackings(t, tr, 3) {
		rd := ref.WindowReader(3)
		w0, err := rd.Window(0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		snapshot := append([]float64(nil), w0.Packed.Coords...)
		other := ref.WindowReader(3)
		for k := 0; k < other.NumWindows(); k++ {
			if _, err := other.Window(k); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		other.Close()
		for i, v := range snapshot {
			if w0.Packed.Coords[i] != v {
				t.Fatalf("%s: window 0 changed while its slot was not reused", name)
			}
		}
		w1, err := rd.Window(1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w1 != w0 || w0.Start != 3 {
			t.Fatalf("%s: second window did not reuse the reader's slot", name)
		}
		rd.Close()
	}
}

// Ref.Windows is the sequential wrapper: same windows, io.EOF after the
// last, Close at any point.
func TestWindowsSequentialWrapper(t *testing.T) {
	tr := fuzzTraj(3, 8, 9)
	for name, ref := range windowBackings(t, tr, 3) {
		loaded, err := ref.Load()
		if err != nil {
			t.Fatal(err)
		}
		it := ref.Windows(3)
		for start := 0; start < 8; start += 3 {
			w, err := it.Next()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameWindow(t, name, w, packedWindow(loaded, start, min(3, 8-start)), start)
		}
		if _, err := it.Next(); err == nil {
			t.Fatalf("%s: no io.EOF after the last window", name)
		}
		it.Close()
		early := ref.Windows(3)
		if _, err := early.Next(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		early.Close()
		if _, err := early.Next(); err == nil {
			t.Fatalf("%s: closed iterator kept yielding", name)
		}
	}
}

// The plain-.mdt reader trusts the shape FileRef validated and nothing
// else: a file replaced by one with a different header, or truncated
// after the ref was built, fails the read instead of sizing a buffer
// from the new header; a flipped payload byte fails a front-to-back
// scan (Windows, Digest) with ErrChecksum.
func TestWindowReaderHostileFile(t *testing.T) {
	tr := fuzzTraj(4, 6, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "a.mdt")
	if err := WriteMDTFile(path, tr, 8); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := FileRef(path)
	if err != nil {
		t.Fatal(err)
	}

	// A header now claiming 2³²−1 atoms × 2³²−1 frames.
	hostile := append([]byte("MDT1"), 8, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
	if err := os.WriteFile(path, hostile, 0o644); err != nil {
		t.Fatal(err)
	}
	rd := ref.WindowReader(2)
	if _, err := rd.Window(0); err == nil || !strings.Contains(err.Error(), "header now declares") {
		t.Fatalf("replaced header: err = %v", err)
	}
	rd.Close()

	// Truncated behind the ref's back: the tail window is gone.
	if err := os.WriteFile(path, good[:len(good)-40], 0o644); err != nil {
		t.Fatal(err)
	}
	rd = ref.WindowReader(2)
	if _, err := rd.Window(0); err != nil {
		t.Fatalf("window 0 of a tail-truncated file: %v", err)
	}
	if _, err := rd.Window(2); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated tail: err = %v, want ErrTruncated", err)
	}
	rd.Close()

	// One flipped payload bit: random access cannot see it, the
	// sequential scans must.
	bad := append([]byte(nil), good...)
	bad[len(bad)-20] ^= 0x01
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	ref, err = FileRef(path)
	if err != nil {
		t.Fatal(err)
	}
	it := ref.Windows(4)
	var scanErr error
	for scanErr == nil {
		_, scanErr = it.Next()
	}
	if !errors.Is(scanErr, ErrChecksum) {
		t.Fatalf("sequential scan of a corrupted payload: err = %v, want ErrChecksum", scanErr)
	}
	if _, err := ref.Digest(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("digest of a corrupted payload: err = %v, want ErrChecksum", err)
	}
}

// A window chain validates every blob it is handed: wrong shape,
// wrong length and a corrupted payload are all errors.
func TestWindowChainRejectsBadBlobs(t *testing.T) {
	tr := fuzzTraj(3, 6, 8)
	mem := MemRef(tr)
	blobOf := func(win int) []byte {
		b, err := mem.EncodeMDTWindow(win*2, 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	other, err := MemRef(fuzzTraj(4, 2, 1)).EncodeMDTWindow(0, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	flipped := blobOf(1)
	flipped[len(flipped)-10] ^= 0x40
	for name, tc := range map[string]struct {
		blob []byte
		want string
	}{
		"wrong-shape": {other, "blob holds"},
		"short":       {blobOf(1)[:30], "truncated"},
		"corrupted":   {flipped, "checksum"},
	} {
		blob := tc.blob
		ref, err := WindowChainRef("c", 3, 6, 2, func(win int) ([]byte, error) {
			if win == 1 {
				return blob, nil
			}
			return blobOf(win), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		rd := ref.WindowReader(2)
		if _, err := rd.Window(0); err != nil {
			t.Fatalf("%s: good window: %v", name, err)
		}
		if _, err := rd.Window(1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want it to mention %q", name, err, tc.want)
		}
		rd.Close()
	}
}

// Non-finite coordinates are refused where they enter the program, by
// every decoder, with an error naming the file, the frame and the atom.
func TestDecodersRejectNonFinite(t *testing.T) {
	dir := t.TempDir()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tr := fuzzTraj(3, 5, 21)
		tr.Frames[3].Coords[2][1] = bad
		for _, prec := range []int{4, 8} {
			path := filepath.Join(dir, "nonfinite.mdt")
			if err := WriteMDTFile(path, tr, prec); err != nil {
				t.Fatal(err)
			}
			check := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, ErrNonFinite) {
					t.Fatalf("%v/prec=%d %s: err = %v, want ErrNonFinite", bad, prec, what, err)
				}
				for _, part := range []string{"nonfinite.mdt", "frame 3", "atom 2"} {
					if !strings.Contains(err.Error(), part) {
						t.Fatalf("%v/prec=%d %s: error %q does not name %q", bad, prec, what, err, part)
					}
				}
			}
			_, err := ReadMDTFile(path)
			check("ReadMDTFile", err)
			ref, err := FileRef(path) // header only: the payload is not scanned yet
			if err != nil {
				t.Fatal(err)
			}
			_, err = ref.Digest()
			check("Digest", err)
			rd := ref.WindowReader(2)
			if _, err := rd.Window(0); err != nil {
				t.Fatalf("finite window refused: %v", err)
			}
			_, err = rd.Window(1)
			check("Window", err)
			rd.Close()
			_, err = ref.Load()
			check("Load", err)
		}
		gz := filepath.Join(dir, "nonfinite.mdt.gz")
		if err := WriteMDTGZFile(gz, tr, 8); err != nil {
			t.Fatal(err)
		}
		if _, err := FileRef(gz); !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), "nonfinite.mdt.gz") {
			t.Fatalf("%v gz: err = %v, want ErrNonFinite naming the file", bad, err)
		}
	}
	xyzt := filepath.Join(dir, "nonfinite.xyzt")
	if err := os.WriteFile(xyzt, []byte("2\nt=0 n\n0 0 0\n1 1 1\n2\nt=1 n\n0 0 0\n1 NaN 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadXYZTFile(xyzt)
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("xyzt: err = %v, want ErrNonFinite", err)
	}
	for _, part := range []string{"nonfinite.xyzt", "line 8", "frame 1", "atom 1"} {
		if !strings.Contains(err.Error(), part) {
			t.Fatalf("xyzt: error %q does not name %q", err, part)
		}
	}
	if _, err := FileRef(xyzt); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("xyzt FileRef: err = %v, want ErrNonFinite", err)
	}
}
