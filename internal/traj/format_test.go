package traj

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
	if a.Name != b.Name || a.NAtoms != b.NAtoms || len(a.Times) != len(b.Times) || len(a.Coords) != len(b.Coords) {
		return false
	}
	for f := range a.Times {
		if math.Abs(a.Times[f]-b.Times[f]) > tol {
			return false
		}
	}
	for i := range a.Coords {
		for k := 0; k < 3; k++ {
			if math.Abs(a.Coords[i][k]-b.Coords[i][k]) > tol {
				return false
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
	tr := randTraj(t, 15, 1, 1)
	for _, prec := range []int{0, 2, 5, 16} {
		if _, err := EncodeMDT(tr, prec); !errors.Is(err, ErrBadPrecision) {
			t.Fatalf("prec %d: err = %v, want ErrBadPrecision", prec, err)
		}
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

// EncodeMDT refuses what the header cannot describe: coordinates that
// are not NAtoms per frame, and a name longer than its uint16 length.
// WriteMDTFile creates no file for either.
func TestEncodeMDTShapeCheck(t *testing.T) {
	short := &Trajectory{Name: "x", NAtoms: 3, Coords: make([]linalg.Vec3, 2), Times: []float64{0}}
	long := randTraj(t, 16, 2, 2)
	long.Name = strings.Repeat("n", math.MaxUint16+1)
	for label, c := range map[string]struct {
		tr  *Trajectory
		err error
	}{"short frame": {short, ErrShapeMismatch}, "long name": {long, nil}} {
		if _, err := EncodeMDT(c.tr, 8); err == nil || (c.err != nil && !errors.Is(err, c.err)) {
			t.Fatalf("%s: err = %v, want a refusal (%v)", label, err, c.err)
		}
		path := filepath.Join(t.TempDir(), "x.mdt")
		if err := WriteMDTFile(path, c.tr, 4); err == nil {
			t.Fatalf("%s: WriteMDTFile accepted it", label)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: WriteMDTFile left %s behind (%v)", label, path, err)
		}
	}
	long.Name = long.Name[1:]
	if _, err := EncodeMDT(long, 8); err != nil {
		t.Fatalf("a name of %d bytes: %v", len(long.Name), err)
	}
}

// goldenTraj is a fixed trajectory whose MDT bytes are pinned: signs,
// magnitudes across six decades, −0, a subnormal, a value near the
// float32 limit and one that rounds on narrowing.
func goldenTraj() *Trajectory {
	t := Alloc("golden", 5, 4)
	for f := range 4 {
		t.Times[f] = float64(f)*0.25 - 1
		c := t.FrameCoords(f)
		for i := range c {
			for k := range 3 {
				v := float64(f*15+i*3+k) / 7 * []float64{1e-3, 1, 1e3}[k]
				if (i+k)%2 == 1 {
					v = -v
				}
				c[i][k] = v
			}
		}
	}
	c := t.FrameCoords(2)
	c[0][0] = math.Copysign(0, -1)
	c[1][1] = 5e-324
	c[2][2] = math.MaxFloat32 * 0.99
	c[3][0] = 1.0000000596046448
	return t
}

// The encoder writes the same bytes as every earlier writer of the
// format: EncodeMDT and WriteMDTFile of goldenTraj hash to the values
// recorded before the frame layout moved to one backing.
func TestEncodeMDTGolden(t *testing.T) {
	want := map[int]string{
		4: "af44de1904cd2be09cdab0d492db434cf9036c43f12352a2b801601803453419",
		8: "1932edd68c6e40cce226751ed54d90e6b0531bc787fae0222681d80c580c8a13",
	}
	for prec, w := range want {
		b, err := EncodeMDT(goldenTraj(), prec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "g.mdt")
		if err := WriteMDTFile(path, goldenTraj(), prec); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for label, got := range map[string][]byte{"EncodeMDT": b, "WriteMDTFile": file} {
			if sum := sha256.Sum256(got); hex.EncodeToString(sum[:]) != w {
				t.Errorf("prec %d %s: %d bytes hashing to %x, want %s", prec, label, len(got), sum, w)
			}
		}
	}
}

func TestMDTHeaderFields(t *testing.T) {
	tr := randTraj(t, 14, 6, 2)
	tr.Name = "hello world"
	b, err := EncodeMDT(tr, 8)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := NewMDTReader(bytes.NewReader(b))
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
	t := &Trajectory{Name: mr.name, NAtoms: mr.nAtoms}
	buf := make([]byte, 8+mr.nAtoms*3*mr.prec)
	for range mr.nFrames {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf)
		t.Times = append(t.Times, math.Float64frombits(binary.LittleEndian.Uint64(buf)))
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
			t.Coords = append(t.Coords, p)
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
