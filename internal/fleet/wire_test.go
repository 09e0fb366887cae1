package fleet

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"mdtask/internal/linalg"
	"mdtask/internal/traj"
)

// A PSA payload whose header claims 2³¹−1 trajectories but carries none
// must be an error, not an ensemble sized from the claim: that make
// aborted a worker with a fatal out-of-memory.
func TestDecodeEnsembleHostileCount(t *testing.T) {
	hostile := []byte{'P', 0xff, 0xff, 0xff, 0x7f}
	var err error
	if n := heapAllocated(func() { _, err = DecodeEnsemble(hostile) }); n > 1<<20 {
		t.Errorf("decoding a %d-byte payload allocated %d bytes", len(hostile), n)
	}
	if err == nil {
		t.Fatal("payload claiming 2^31-1 trajectories accepted with none present")
	}
}

// heapAllocated returns the bytes fn allocates on the heap.
func heapAllocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Heap a decoder may spend per payload byte. Coordinates and floats
// decode to at most their own size twice over (base64 text, then
// values). A trajectory blob is at least 27 bytes with its length
// prefix, and its decoder reads through a 4 KiB buffer; its frames cost
// at most 4× their bytes. allocSlack absorbs fixed costs and the odd
// allocation of another goroutine.
const (
	coordsAllocPerByte   = 2
	floatsAllocPerByte   = 2
	ensembleAllocPerByte = 256
	allocSlack           = 1 << 20
)

// wireFloats reads data as little-endian float64 bit patterns, so every
// NaN payload and signed zero appears.
func wireFloats(data []byte) []float64 {
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameCoordBits(a, b []linalg.Vec3) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i][:], b[i][:]) {
			return false
		}
	}
	return true
}

func sameEnsembleBits(a, b traj.Ensemble) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Name != y.Name || x.NAtoms != y.NAtoms || len(x.Frames) != len(y.Frames) {
			return false
		}
		for f := range x.Frames {
			if math.Float64bits(x.Frames[f].Time) != math.Float64bits(y.Frames[f].Time) ||
				!sameCoordBits(x.Frames[f].Coords, y.Frames[f].Coords) {
				return false
			}
		}
	}
	return true
}

// wireEnsemble builds a small ensemble whose times and coordinates are
// data's float64 bit patterns: one or two trajectories of 1-3 atoms.
func wireEnsemble(data []byte) traj.Ensemble {
	vals := wireFloats(data)
	if len(vals) == 0 {
		return nil
	}
	nAtoms := 1 + int(data[0])%3
	ens := make(traj.Ensemble, 1+int(data[len(data)-1])%2)
	for i := range ens {
		ens[i] = traj.New(string(rune('a'+i)), nAtoms)
	}
	per := 1 + 3*nAtoms // a frame: its time, then its coordinates
	for f := 0; (f+1)*per <= len(vals); f++ {
		v := vals[f*per : (f+1)*per]
		fr := traj.Frame{Time: v[0], Coords: make([]linalg.Vec3, nAtoms)}
		for a := range fr.Coords {
			fr.Coords[a] = linalg.Vec3{v[1+3*a], v[2+3*a], v[3+3*a]}
		}
		t := ens[f%len(ens)]
		t.Frames = append(t.Frames, fr)
	}
	return ens
}

// FuzzFleetWire throws arbitrary bytes at the worker protocol's payload
// decoders — DecodeEnsemble, DecodeCoords and UnpackFloats. None may
// panic or allocate more than a linear multiple of the payload, whatever
// its header claims; whatever one accepts re-encodes and decodes to the
// same bits; and the same bytes, read as float64 bit patterns (NaN
// payloads included), round-trip through every encoder bit for bit —
// save that an ensemble with a non-finite coordinate is refused on
// decode. Seeds in testdata/fuzz: hostile trajectory and atom counts, a
// truncated trajectory, non-canonical base64, a NaN coordinate.
func FuzzFleetWire(f *testing.F) {
	nan := make([]byte, 0, 48)
	for _, bits := range []uint64{0x7ff8000000000001, 0xfff0000000000abc, 0x8000000000000000, 0x7ff0000000000000, 0x3ff0000000000000, 0x0000000000000001} {
		nan = binary.LittleEndian.AppendUint64(nan, bits)
	}
	f.Add(nan)
	if raw, err := EncodeEnsemble(wireEnsemble(append(nan, nan...))); err == nil {
		f.Add(raw)
	}
	v := wireFloats(nan)
	f.Add(EncodeCoords([]linalg.Vec3{{v[0], v[1], v[2]}, {v[3], v[4], v[5]}}))
	f.Add([]byte(PackFloats(v)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			ens    traj.Ensemble
			coords []linalg.Vec3
			vals   []float64
			errE   error
			errC   error
			errF   error
		)
		for _, d := range []struct {
			name    string
			perByte uint64
			decode  func()
		}{
			{"DecodeEnsemble", ensembleAllocPerByte, func() { ens, errE = DecodeEnsemble(data) }},
			{"DecodeCoords", coordsAllocPerByte, func() { coords, errC = DecodeCoords(data) }},
			{"UnpackFloats", floatsAllocPerByte, func() { vals, errF = UnpackFloats(string(data)) }},
		} {
			if n, budget := heapAllocated(d.decode), d.perByte*uint64(len(data))+allocSlack; n > budget {
				t.Fatalf("%s of %d bytes allocated %d, budget %d", d.name, len(data), n, budget)
			}
		}

		// Accepted payloads survive a re-encode.
		if errE == nil {
			raw, err := EncodeEnsemble(ens)
			if err != nil {
				t.Fatalf("accepted ensemble fails to encode: %v", err)
			}
			if back, err := DecodeEnsemble(raw); err != nil || !sameEnsembleBits(back, ens) {
				t.Fatalf("accepted ensemble does not round-trip (err %v)", err)
			}
		}
		if errC == nil {
			if back, err := DecodeCoords(EncodeCoords(coords)); err != nil || !sameCoordBits(back, coords) {
				t.Fatalf("accepted coordinates do not round-trip (err %v)", err)
			}
		}
		if errF == nil {
			if back, err := UnpackFloats(PackFloats(vals)); err != nil || !sameBits(back, vals) {
				t.Fatalf("accepted floats do not round-trip (err %v)", err)
			}
		}

		// Encode → decode is the identity on bits.
		fs := wireFloats(data)
		if back, err := UnpackFloats(PackFloats(fs)); err != nil || !sameBits(back, fs) {
			t.Fatalf("floats %x do not round-trip (err %v)", data, err)
		}
		cs := make([]linalg.Vec3, len(fs)/3)
		for i := range cs {
			cs[i] = linalg.Vec3{fs[3*i], fs[3*i+1], fs[3*i+2]}
		}
		if back, err := DecodeCoords(EncodeCoords(cs)); err != nil || !sameCoordBits(back, cs) {
			t.Fatalf("coordinates %x do not round-trip (err %v)", data, err)
		}
		want := wireEnsemble(data)
		raw, err := EncodeEnsemble(want)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeEnsemble(raw)
		switch {
		case !finiteCoords(want):
			if !errors.Is(err, traj.ErrNonFinite) {
				t.Fatalf("ensemble of %x: non-finite coordinate not refused (err %v)", data, err)
			}
		case err != nil || !sameEnsembleBits(back, want):
			t.Fatalf("ensemble of %x does not round-trip (err %v)", data, err)
		}
	})
}

// finiteCoords reports whether every coordinate of ens is finite; a
// trajectory decoder refuses any other (traj.ErrNonFinite), while frame
// times keep whatever bits they carry.
func finiteCoords(ens traj.Ensemble) bool {
	for _, t := range ens {
		for _, fr := range t.Frames {
			for _, p := range fr.Coords {
				for _, x := range p {
					if math.IsNaN(x) || math.IsInf(x, 0) {
						return false
					}
				}
			}
		}
	}
	return true
}
