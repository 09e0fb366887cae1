package traj

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzTraj builds a small deterministic trajectory from fuzzed shape
// parameters (an LCG keeps the package dependency-free).
func fuzzTraj(nAtoms, nFrames int, seed uint64) *Trajectory {
	t := Alloc("fuzz", nAtoms, nFrames)
	state := seed | 1
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(int64(state>>11)%2000) / 16.0
	}
	for f := range t.Times {
		t.Times[f] = float64(f)
	}
	for a := range t.Coords {
		t.Coords[a] = [3]float64{next(), next(), next()}
	}
	return t
}

// FuzzDecodeMDT throws arbitrary bytes at the MDT decoder: hostile
// atom/frame counts must return errors without unbounded allocation,
// and accepted payloads must round-trip exactly. The payload starts
// 15 + len(name) bytes into the blob, so the seeds' names of length 1,
// 3, 5 and 7 put the coordinates on both boundaries decodeCoords views
// in place, on only the 4-byte one, and on neither.
func FuzzDecodeMDT(f *testing.F) {
	if blob, err := EncodeMDT(fuzzTraj(3, 2, 42), 8); err == nil {
		f.Add(blob)
	}
	if blob, err := EncodeMDT(fuzzTraj(1, 5, 7), 4); err == nil {
		f.Add(blob)
	}
	for _, nameLen := range []int{1, 3, 5, 7} {
		for _, prec := range []int{4, 8} {
			tr := fuzzTraj(2, 3, uint64(nameLen))
			tr.Name = strings.Repeat("n", nameLen)
			if blob, err := EncodeMDT(tr, prec); err == nil {
				f.Add(blob)
			}
		}
	}
	f.Add([]byte("MDT1"))
	f.Add([]byte("MDT1\x08\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff")) // hostile counts
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeMDT(data)
		if err != nil {
			return
		}
		blob, err := EncodeMDT(tr, 8)
		if err != nil {
			t.Fatalf("accepted trajectory fails to encode: %v", err)
		}
		back, err := DecodeMDT(blob)
		if err != nil {
			t.Fatalf("re-encoded trajectory fails to decode: %v", err)
		}
		if back.NAtoms != tr.NAtoms || back.NFrames() != tr.NFrames() {
			t.Fatalf("round trip changed shape")
		}
		for a := range tr.Coords {
			if back.Coords[a] != tr.Coords[a] {
				t.Fatalf("frame %d atom %d changed in round trip", a/tr.NAtoms, a%tr.NAtoms)
			}
		}
	})
}

// FuzzWindowRoundTrip drives the window reader over fuzzed shapes:
// concatenating the windows of any trajectory must reproduce it
// exactly, for any window size, front to back and — by random access —
// back to front, from a memory-backed ref, a window chain whose blob
// size is never the reader's window size (so windows straddle blobs)
// and a seekable .mdt file.
func FuzzWindowRoundTrip(f *testing.F) {
	f.Add(uint8(3), uint8(7), uint8(2), uint64(1))
	f.Add(uint8(1), uint8(1), uint8(1), uint64(9))
	f.Add(uint8(0), uint8(4), uint8(3), uint64(5))
	f.Add(uint8(5), uint8(0), uint8(2), uint64(3))
	f.Add(uint8(4), uint8(6), uint8(200), uint64(11))
	f.Fuzz(func(t *testing.T, nAtoms, nFrames, window uint8, seed uint64) {
		na, nf, w := int(nAtoms)%16, int(nFrames)%32, int(window)
		tr := fuzzTraj(na, nf, seed)
		blob, err := EncodeMDT(tr, 8)
		if err != nil {
			t.Fatal(err)
		}
		mem := MemRef(tr)
		chain := mem.WindowReader(w).Size()%3 + 1
		chainRef, err := WindowChainRef(tr.Name, na, nf, chain, func(win int) ([]byte, error) {
			return mem.EncodeMDTWindow(win*chain, chain, 8)
		})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "fuzz.mdt")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		fileRef, err := FileRef(path)
		if err != nil {
			t.Fatal(err)
		}
		sameFrames := func(win *Window, label string) {
			for i := 0; i < win.Packed.NFrames; i++ {
				row := win.Packed.Row(i)
				want := tr.FrameCoords(win.Start + i)
				for a := 0; a < na; a++ {
					for k := 0; k < 3; k++ {
						if row[a*3+k] != want[a][k] {
							t.Fatalf("%s: window at %d frame %d atom %d component %d differs", label, win.Start, i, a, k)
						}
					}
				}
			}
		}
		for _, ref := range []*Ref{mem, chainRef, fileRef} {
			rd := ref.WindowReader(w)
			for k := rd.NumWindows() - 1; k >= 0; k-- {
				win, err := rd.Window(k)
				if err != nil {
					t.Fatalf("random access to window %d: %v", k, err)
				}
				if win.Start != k*rd.Size() {
					t.Fatalf("window %d starts at %d, want %d", k, win.Start, k*rd.Size())
				}
				sameFrames(win, "random access")
			}
			rd.Close()
			it := ref.Windows(w)
			frames := 0
			windows := 0
			for {
				win, err := it.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("window %d: %v", windows, err)
				}
				if win.Start != frames {
					t.Fatalf("window %d starts at %d, want %d", windows, win.Start, frames)
				}
				sameFrames(win, "sequential")
				frames += win.Packed.NFrames
				windows++
			}
			it.Close()
			if frames != nf {
				t.Fatalf("windows cover %d frames, want %d", frames, nf)
			}
			if want := ref.NumWindows(w); windows != want {
				t.Fatalf("iterated %d windows, NumWindows says %d", windows, want)
			}
		}
	})
}
