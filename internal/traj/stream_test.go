package traj

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdtask/internal/linalg"
)

func streamTestTraj(nAtoms, nFrames int) *Trajectory {
	t := Alloc("stream", nAtoms, nFrames)
	for f := range nFrames {
		t.Times[f] = float64(f) * 0.5
		for a := range nAtoms {
			t.FrameCoords(f)[a] = linalg.Vec3{float64(f*nAtoms+a) * 0.25, float64(a) - 1.5, float64(f)}
		}
	}
	return t
}

// FileRef learns the shape from the MDT header and opens nothing else:
// gzip and text bytes fail with ErrBadMagic naming the path, whatever
// the extension. It rejects an .mdt whose header overstates its frame
// count — the hostile-header case that would otherwise size downstream
// allocations.
func TestFileRefShapes(t *testing.T) {
	tr := streamTestTraj(4, 6)
	dir := t.TempDir()
	mdt := filepath.Join(dir, "b.mdt")
	if err := WriteMDTFile(mdt, tr, 8); err != nil {
		t.Fatal(err)
	}
	r, err := FileRef(mdt)
	if err != nil {
		t.Fatal(err)
	}
	if r.NAtoms() != 4 || r.NFrames() != 6 {
		t.Fatalf("shape %d×%d, want 4×6", r.NAtoms(), r.NFrames())
	}
	loaded, err := r.Load()
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NFrames() != 6 {
		t.Fatalf("loaded %d frames", loaded.NFrames())
	}

	raw, err := os.ReadFile(mdt)
	if err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"b.mdt.gz": gz.Bytes(),
		"gz.mdt":   gz.Bytes(),
		"b.xyzt":   []byte("1\nt=0 b\n0 0 0\n"),
		"text.mdt": []byte("1\nt=0 b\n0 0 0\n"),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := FileRef(path); !errors.Is(err, ErrBadMagic) || !strings.Contains(err.Error(), name) {
			t.Fatalf("%s: err = %v, want ErrBadMagic naming the file", name, err)
		}
	}

	// Truncate the MDT payload: the stat check must reject it up front.
	bad := filepath.Join(dir, "trunc.mdt")
	if err := os.WriteFile(bad, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := FileRef(bad); err == nil {
		t.Fatal("truncated mdt accepted")
	}

	// A header whose claimed shape overflows int64 arithmetic
	// (nAtoms·nFrames·prec ≈ 2⁶⁹) must be rejected, never wrapped into
	// a plausible size.
	hostile := append([]byte("MDT1"), 8, 0, 0,
		0xff, 0xff, 0xff, 0xff, // nAtoms = 2³²−1
		0xff, 0xff, 0xff, 0xff) // nFrames = 2³²−1
	overflow := filepath.Join(dir, "overflow.mdt")
	if err := os.WriteFile(overflow, hostile, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := FileRef(overflow); err == nil {
		t.Fatal("overflowing header accepted by FileRef")
	}
	if _, err := DecodeMDT(hostile); err == nil {
		t.Fatal("overflowing header accepted by DecodeMDT")
	}
}

// A window chain whose blobs hold a different frame count than the
// ref declares is an error, not a silent truncation.
func TestWindowsValidateDeclaredShape(t *testing.T) {
	mem := MemRef(streamTestTraj(2, 4))
	for _, declared := range []int{3, 5} {
		r, err := WindowChainRef("lie", 2, declared, 2, func(win int) ([]byte, error) {
			return mem.EncodeMDTWindow(win*2, 2, 8)
		})
		if err != nil {
			t.Fatal(err)
		}
		it := r.Windows(2)
		var iterErr error
		for {
			_, err := it.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				iterErr = err
				break
			}
		}
		it.Close()
		if iterErr == nil {
			t.Fatalf("declared=%d actual=4: no error", declared)
		}
		if !strings.Contains(iterErr.Error(), "blob holds") {
			t.Fatalf("declared=%d: unexpected error %v", declared, iterErr)
		}
	}
	if _, err := WindowChainRef("neg", 2, -1, 2, nil); err == nil {
		t.Fatal("negative frame count accepted")
	}
}

func ExampleRef_Windows() {
	tr := &Trajectory{Name: "demo", NAtoms: 1,
		Coords: []linalg.Vec3{{0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {3, 0, 0}, {4, 0, 0}},
		Times:  []float64{0, 1, 2, 3, 4}}
	it := MemRef(tr).Windows(2)
	defer it.Close()
	for {
		w, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			panic(err)
		}
		fmt.Printf("window at %d: %d frames\n", w.Start, w.NFrames())
	}
	// Output:
	// window at 0: 2 frames
	// window at 2: 2 frames
	// window at 4: 1 frames
}
