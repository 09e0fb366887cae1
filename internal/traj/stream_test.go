package traj

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdtask/internal/linalg"
)

func streamTestTraj(nAtoms, nFrames int) *Trajectory {
	t := New("stream", nAtoms)
	for f := 0; f < nFrames; f++ {
		fr := Frame{Time: float64(f) * 0.5}
		for a := 0; a < nAtoms; a++ {
			fr.Coords = append(fr.Coords, linalg.Vec3{
				float64(f*nAtoms+a) * 0.25, float64(a) - 1.5, float64(f),
			})
		}
		t.Frames = append(t.Frames, fr)
	}
	return t
}

// drain reads a source to EOF, returning its frames.
func drain(t *testing.T, src FrameSource) []Frame {
	t.Helper()
	var out []Frame
	for {
		f, err := src.NextFrame()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
}

// OpenSource must stream every supported format — .mdt, .mdt.gz,
// .xyzt, .xyzt.gz — frame-exactly for the binary formats, and reject
// unknown extensions.
func TestOpenSourceFormats(t *testing.T) {
	tr := streamTestTraj(3, 5)
	dir := t.TempDir()

	mdt := filepath.Join(dir, "a.mdt")
	if err := WriteMDTFile(mdt, tr, 8); err != nil {
		t.Fatal(err)
	}
	mdtgz := filepath.Join(dir, "a.mdt.gz")
	if err := writeMDTGZFile(mdtgz, tr, 8); err != nil {
		t.Fatal(err)
	}
	xyzt := filepath.Join(dir, "a.xyzt")
	if err := writeXYZTFile(xyzt, tr); err != nil {
		t.Fatal(err)
	}
	xyztgz := filepath.Join(dir, "a.xyzt.gz")
	f, err := os.Create(xyztgz)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	if err := WriteXYZT(zw, tr); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{mdt, mdtgz, xyzt, xyztgz} {
		src, err := OpenSource(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		frames := drain(t, src)
		if err := src.Close(); err != nil {
			t.Fatalf("%s: close: %v", path, err)
		}
		if len(frames) != tr.NFrames() {
			t.Fatalf("%s: %d frames, want %d", path, len(frames), tr.NFrames())
		}
		exact := strings.Contains(path, ".mdt")
		for i, fr := range frames {
			if len(fr.Coords) != tr.NAtoms {
				t.Fatalf("%s: frame %d has %d atoms", path, i, len(fr.Coords))
			}
			if exact && fr.Coords[1] != tr.Frames[i].Coords[1] {
				t.Fatalf("%s: frame %d coords differ", path, i)
			}
		}
	}

	if _, err := OpenSource(filepath.Join(dir, "a.pdb")); err == nil {
		t.Fatal("unsupported extension accepted")
	}
	if _, err := OpenSource(filepath.Join(dir, "missing.mdt")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// FileRef learns shapes from headers (MDT) or counting scans (text,
// gzip), and rejects an .mdt whose header overstates its frame count —
// the hostile-header case that would otherwise size downstream
// allocations.
func TestFileRefShapes(t *testing.T) {
	tr := streamTestTraj(4, 6)
	dir := t.TempDir()
	mdt := filepath.Join(dir, "b.mdt")
	if err := WriteMDTFile(mdt, tr, 8); err != nil {
		t.Fatal(err)
	}
	xyzt := filepath.Join(dir, "b.xyzt")
	if err := writeXYZTFile(xyzt, tr); err != nil {
		t.Fatal(err)
	}
	gz := filepath.Join(dir, "b.mdt.gz")
	if err := writeMDTGZFile(gz, tr, 8); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{mdt, xyzt, gz} {
		r, err := FileRef(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if r.NAtoms() != 4 || r.NFrames() != 6 {
			t.Fatalf("%s: shape %d×%d, want 4×6", path, r.NAtoms(), r.NFrames())
		}
		loaded, err := r.Load()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if loaded.NFrames() != 6 {
			t.Fatalf("%s: loaded %d frames", path, loaded.NFrames())
		}
	}

	// Truncate the MDT payload: the stat check must reject it up front.
	raw, err := os.ReadFile(mdt)
	if err != nil {
		t.Fatal(err)
	}
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

// XYZT parse errors must name the offending line (and, through
// ReadXYZTFile, the file): a bad float mid-file is reported at its
// exact position.
func TestXYZTErrorsCarryLineNumbers(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  string // substring of the expected error
	}{
		{"bad-count", "x\n", "line 1: bad atom count"},
		{"bad-time", "1\nt=abc\n0 0 0\n", "line 2: bad time"},
		// Frame 2's second atom (line 8) has a malformed z coordinate.
		{"bad-float-mid-file", "2\nt=0 n\n0 0 0\n1 1 1\n2\nt=1 n\n0 0 0\n1 1 oops\n", `line 8: bad coordinate "oops"`},
		{"short-coord-line", "1\nt=0\n0 0\n", "line 3: want 3 coordinates"},
		{"truncated-frame", "2\nt=0\n0 0 0\n", "line 3: truncated frame (1/2 atoms)"},
		{"mismatched-count", "1\nt=0\n0 0 0\n2\nt=1\n0 0 0\n0 0 0\n", "line 4: frame atom count 2 differs from 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readXYZT(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("malformed input accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}

	// The file path is part of the error when reading from disk.
	path := filepath.Join(t.TempDir(), "bad.xyzt")
	if err := os.WriteFile(path, []byte("1\nt=0\n0 0 nope\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := readXYZTFile(path)
	if err == nil {
		t.Fatal("malformed file accepted")
	}
	if !strings.Contains(err.Error(), "bad.xyzt") || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("file error %q lacks path or line", err)
	}
}

// A stream ref that yields a different frame count than declared is an
// error, not a silent truncation.
func TestWindowsValidateDeclaredShape(t *testing.T) {
	tr := streamTestTraj(2, 4)
	for _, declared := range []int{3, 5} {
		r, err := NewStreamRef("lie", 2, declared, func() (FrameSource, error) {
			return SourceOf(tr), nil
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
		if !strings.Contains(iterErr.Error(), "declares") {
			t.Fatalf("declared=%d: unexpected error %v", declared, iterErr)
		}
	}
}

// MultiSource concatenates blobs transparently and enforces the atom
// count across chunks.
func TestMultiSource(t *testing.T) {
	tr := streamTestTraj(3, 5)
	var blobs [][]byte
	for i := 0; i < 5; i += 2 {
		end := i + 2
		if end > 5 {
			end = 5
		}
		part := &Trajectory{Name: "p", NAtoms: 3, Frames: tr.Frames[i:end]}
		blob, err := EncodeMDT(part, 8)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	next := 0
	src := MultiSource(3, func() (FrameSource, error) {
		if next >= len(blobs) {
			return nil, nil
		}
		tr, err := DecodeMDT(blobs[next])
		next++
		if err != nil {
			return nil, err
		}
		return SourceOf(tr), nil
	})
	frames := drain(t, src)
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if len(frames) != 5 {
		t.Fatalf("%d frames, want 5", len(frames))
	}
	for i, f := range frames {
		for a := range f.Coords {
			if f.Coords[a] != tr.Frames[i].Coords[a] {
				t.Fatalf("frame %d atom %d differs", i, a)
			}
		}
	}

	// An atom-count mismatch inside the chain is detected.
	bad := MultiSource(4, func() (FrameSource, error) {
		return SourceOf(streamTestTraj(3, 1)), nil
	})
	if _, err := bad.NextFrame(); err == nil {
		t.Fatal("mismatched chunk accepted")
	}
	bad.Close()
}

// SkipFrames positions an MDT reader without unbounded allocation and
// EncodeMDTWindow's generic path uses it.
func TestMDTSkipFrames(t *testing.T) {
	tr := streamTestTraj(2, 6)
	blob, err := EncodeMDT(tr, 8)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := NewMDTReader(newByteReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if err := mr.SkipFrames(4); err != nil {
		t.Fatal(err)
	}
	f, err := mr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Time != tr.Frames[4].Time {
		t.Fatalf("frame after skip has time %v, want %v", f.Time, tr.Frames[4].Time)
	}
	// Reading to EOF still verifies the checksum (skip feeds the CRC).
	if _, err := mr.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if _, err := mr.ReadFrame(); err != io.EOF {
		t.Fatalf("want io.EOF after last frame, got %v", err)
	}
}

// newByteReader avoids importing bytes in this file's top-level API
// examples.
func newByteReader(b []byte) io.Reader {
	return &byteReader{b: b}
}

type byteReader struct{ b []byte }

func (r *byteReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// Ref naming: files without embedded names fall back to the path stem.
func TestRefNameFromPath(t *testing.T) {
	for path, want := range map[string]string{
		"/data/run7.mdt.gz": "run7",
		"walk.xyzt":         "walk",
		"/a/b/c.mdt":        "c",
	} {
		if got := refNameFromPath(path); got != want {
			t.Errorf("refNameFromPath(%q) = %q, want %q", path, got, want)
		}
	}
}

func ExampleRef_Windows() {
	tr := New("demo", 1)
	for i := 0; i < 5; i++ {
		tr.Frames = append(tr.Frames, Frame{Time: float64(i), Coords: []linalg.Vec3{{float64(i), 0, 0}}})
	}
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
