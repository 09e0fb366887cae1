package traj

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	mathrand "math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mdtask/internal/linalg"
)

// roundTripMDT writes and re-reads a trajectory through the MDT format.
func roundTripMDT(t *testing.T, tr *Trajectory, prec int) *Trajectory {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.mdt")
	if err := WriteMDTFile(path, tr, prec); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMDTFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func trajEqual(a, b *Trajectory, tol float64) bool {
	if a.Name != b.Name || a.NAtoms != b.NAtoms || len(a.Frames) != len(b.Frames) {
		return false
	}
	for f := range a.Frames {
		if math.Abs(a.Frames[f].Time-b.Frames[f].Time) > tol {
			return false
		}
		for i := range a.Frames[f].Coords {
			for k := 0; k < 3; k++ {
				if math.Abs(a.Frames[f].Coords[i][k]-b.Frames[f].Coords[i][k]) > tol {
					return false
				}
			}
		}
	}
	return true
}

func TestMDTRoundTripFloat64(t *testing.T) {
	tr := randTraj(t, 10, 7, 5)
	got := roundTripMDT(t, tr, 8)
	if !trajEqual(tr, got, 0) {
		t.Fatal("float64 round trip not exact")
	}
}

func TestMDTRoundTripFloat32(t *testing.T) {
	tr := randTraj(t, 11, 7, 5)
	got := roundTripMDT(t, tr, 4)
	if !trajEqual(tr, got, 1e-4) {
		t.Fatal("float32 round trip exceeded tolerance")
	}
}

func TestMDTRoundTripQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 25,
		Values: func(args []reflect.Value, r *mathrand.Rand) {
			args[0] = reflect.ValueOf(uint64(r.Int63()))
			args[1] = reflect.ValueOf(1 + r.Intn(20))
			args[2] = reflect.ValueOf(r.Intn(6))
		},
	}
	f := func(seed uint64, nAtoms, nFrames int) bool {
		tr := randTraj(t, seed, nAtoms, nFrames)
		return trajEqual(tr, roundTripMDT(t, tr, 8), 0)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMDTBadMagic(t *testing.T) {
	_, err := NewMDTReader(strings.NewReader("NOTMDT..."))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestMDTBadPrecision(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewMDTWriter(&buf, "x", 1, 1, 5); !errors.Is(err, ErrBadPrecision) {
		t.Fatalf("writer err = %v, want ErrBadPrecision", err)
	}
}

func TestMDTTruncated(t *testing.T) {
	tr := randTraj(t, 12, 4, 3)
	path := filepath.Join(t.TempDir(), "t.mdt")
	if err := WriteMDTFile(path, tr, 8); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := readMDTBytes(data[:len(data)/2])
	if !errors.Is(rerr, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", rerr)
	}
}

func TestMDTChecksumDetectsCorruption(t *testing.T) {
	tr := randTraj(t, 13, 4, 3)
	path := filepath.Join(t.TempDir(), "t.mdt")
	if err := WriteMDTFile(path, tr, 8); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-20] ^= 0xFF // flip a payload byte near the end
	_, rerr := readMDTBytes(data)
	if !errors.Is(rerr, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", rerr)
	}
}

func readMDTBytes(b []byte) (*Trajectory, error) {
	mr, err := NewMDTReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return mr.ReadAll()
}

func TestMDTWriterShapeCheck(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewMDTWriter(&buf, "x", 3, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(Frame{Coords: make([]linalg.Vec3, 2)}); err == nil {
		t.Fatal("WriteFrame accepted wrong shape")
	}
}

func TestMDTHeaderFields(t *testing.T) {
	tr := randTraj(t, 14, 6, 2)
	tr.Name = "hello world"
	var buf bytes.Buffer
	w, err := NewMDTWriter(&buf, tr.Name, tr.NAtoms, len(tr.Frames), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tr.Frames {
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	mr, err := NewMDTReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Name() != "hello world" || mr.NAtoms() != 6 || mr.NFrames() != 2 {
		t.Errorf("header = %q/%d/%d", mr.Name(), mr.NAtoms(), mr.NFrames())
	}
}

func TestXYZTRoundTrip(t *testing.T) {
	tr := randTraj(t, 15, 5, 4)
	tr.Name = "walker"
	var buf bytes.Buffer
	if err := WriteXYZT(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := readXYZT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !trajEqual(tr, got, 1e-6) {
		t.Fatal("xyzt round trip mismatch")
	}
}

func TestXYZTFileRoundTrip(t *testing.T) {
	tr := randTraj(t, 16, 3, 2)
	path := filepath.Join(t.TempDir(), "t.xyzt")
	if err := writeXYZTFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := readXYZTFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !trajEqual(tr, got, 1e-6) {
		t.Fatal("xyzt file round trip mismatch")
	}
}

func TestXYZTErrors(t *testing.T) {
	cases := map[string]string{
		"bad atom count":      "abc\nt=0 x\n",
		"truncated frame":     "2\nt=0 x\n1 2 3\n",
		"bad coordinate":      "1\nt=0 x\n1 2 z\n",
		"missing comment":     "1\n",
		"inconsistent counts": "1\nt=0 x\n1 2 3\n2\nt=1 x\n1 2 3\n4 5 6\n",
		"bad time":            "1\nt=zz x\n1 2 3\n",
		"short coord line":    "1\nt=0 x\n1 2\n",
	}
	for name, input := range cases {
		if _, err := readXYZT(strings.NewReader(input)); err == nil {
			t.Errorf("%s: readXYZT accepted %q", name, input)
		}
	}
}

func TestXYZTEmpty(t *testing.T) {
	got, err := readXYZT(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if got.NFrames() != 0 {
		t.Errorf("NFrames = %d", got.NFrames())
	}
}

func TestMDTStreamingReader(t *testing.T) {
	tr := randTraj(t, 17, 4, 6)
	path := filepath.Join(t.TempDir(), "t.mdt")
	if err := WriteMDTFile(path, tr, 8); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mr, err := NewMDTReader(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		fr, err := mr.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if fr.Time != tr.Frames[i].Time {
			t.Fatalf("frame %d time %v, want %v", i, fr.Time, tr.Frames[i].Time)
		}
	}
	if _, err := mr.ReadFrame(); err == nil || err.Error() != "EOF" {
		t.Fatalf("expected io.EOF after last frame, got %v", err)
	}
}

// writeXYZTFile writes the trajectory to path as XYZT text.
func writeXYZTFile(path string, t *Trajectory) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteXYZT(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readXYZTFile reads a trajectory from an XYZT text file; errors carry
// the path and the line number of malformed input.
func readXYZTFile(path string) (*Trajectory, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := readXYZT(f)
	if err != nil {
		return nil, fmt.Errorf("traj: %s: %w", path, err)
	}
	return t, nil
}

// readXYZT parses an XYZT stream into a trajectory. The atom count of
// every frame must match the first frame's; parse errors include the
// 1-based line number of the offending input.
func readXYZT(r io.Reader) (*Trajectory, error) {
	d := newXYZTDecoder(r)
	var t *Trajectory
	for {
		f, err := d.readFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if t == nil {
			t = New(d.name, d.nAtoms)
		}
		t.Frames = append(t.Frames, f)
	}
	if t == nil {
		t = New("", 0)
	}
	return t, nil
}
