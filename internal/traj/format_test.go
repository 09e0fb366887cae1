package traj

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
	"mdtask/internal/proptest"
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
	proptest.Check(t, f, cfg)
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
	_, rerr := DecodeMDT(data[:len(data)/2])
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
	_, rerr := DecodeMDT(data)
	if !errors.Is(rerr, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", rerr)
	}
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
	if mr.name != "hello world" || mr.nAtoms != 6 || mr.nFrames != 2 {
		t.Errorf("header = %q/%d/%d", mr.name, mr.nAtoms, mr.nFrames)
	}
}

// readAllFrames is the per-frame MDT decoder the whole-payload and
// window decoders are checked against: frames read one at a time
// through an io.Reader, each coordinate converted on its own and
// appended to a frame of its own, the checksum verified at the end.
func readAllFrames(b []byte) (*Trajectory, error) {
	mr, err := NewMDTReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	r := bytes.NewReader(b[mr.headerLen:])
	crc := mr.crc
	t := New(mr.name, mr.nAtoms)
	buf := make([]byte, 8+mr.nAtoms*3*mr.prec)
	for range mr.nFrames {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf)
		f := Frame{Time: math.Float64frombits(binary.LittleEndian.Uint64(buf))}
		for a := range mr.nAtoms {
			var p linalg.Vec3
			for k := range p {
				off := 8 + (a*3+k)*mr.prec
				if mr.prec == 4 {
					p[k] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[off:])))
				} else {
					p[k] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
				}
			}
			f.Coords = append(f.Coords, p)
		}
		if err := t.AppendFrame(f); err != nil {
			return nil, err
		}
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", ErrTruncated, err)
	}
	if binary.LittleEndian.Uint32(tail[:]) != crc {
		return nil, ErrChecksum
	}
	return t, nil
}
