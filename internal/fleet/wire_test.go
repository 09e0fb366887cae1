package fleet

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"mdtask/internal/leaflet"
	"mdtask/internal/linalg"
	"mdtask/internal/psa"
	"mdtask/internal/stage"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// A hostile input blob — 5 bytes that once claimed 2³¹−1 trajectories
// in the whole-ensemble payload and aborted a worker with a fatal
// out-of-memory — must fail every unit body that reads it, in-memory
// and streamed PSA and Leaflet alike, without an allocation sized from
// anything it claims.
func TestHostileInputBlobRefused(t *testing.T) {
	hostile := []byte{'P', 0xff, 0xff, 0xff, 0x7f}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write(hostile) }))
	defer ts.Close()
	w := &Worker{o: WorkerOptions{transferLimit: 1 << 20}, base: ts.URL, xfer: ts.Client()}
	refs := traj.RefsOf(testEnsemble(2, 3, 5, 1))
	var plans []stage.Plan
	for _, window := range []int{0, 2} {
		p, err := stage.PSA(refs, 1, psa.Opts{MaxResidentFrames: window})
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	p, err := stage.Leaflet(synth.Bilayer(64, 1).Coords, synth.BilayerCutoff, 4, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	plans = append(plans, p)
	for _, plan := range plans {
		for i, u := range plan.Units() {
			l := &Lease{Lease: "l", Job: "j", Unit: i, Kind: u.Kind, Desc: u.Desc, Stream: u.Stream}
			if n := heapAllocated(func() { _, err = w.execute(l) }); n > 1<<20 {
				t.Errorf("%s unit %d over a %d-byte blob allocated %d bytes", u.Kind, i, len(hostile), n)
			}
			if err == nil {
				t.Fatalf("%s unit %d accepted a hostile input blob", u.Kind, i)
			}
		}
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
// values); a Leaflet partial's JSON to a small multiple of its text. A
// trajectory blob's decoder reads through a 4 KiB buffer, and its frames
// cost at most 4× their bytes. allocSlack absorbs fixed costs and the
// odd allocation of another goroutine.
const (
	coordsAllocPerByte  = 2
	floatsAllocPerByte  = 2
	partialAllocPerByte = 64
	blobAllocPerByte    = 256
	allocSlack          = 1 << 20
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
		if x.Name != y.Name || x.NAtoms != y.NAtoms || !sameBits(x.Times, y.Times) || !sameCoordBits(x.Coords, y.Coords) {
			return false
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
		ens[i] = &traj.Trajectory{Name: string(rune('a' + i)), NAtoms: nAtoms}
	}
	per := 1 + 3*nAtoms // a frame: its time, then its coordinates
	for f := 0; (f+1)*per <= len(vals); f++ {
		v := vals[f*per : (f+1)*per]
		t := ens[f%len(ens)]
		t.Times = append(t.Times, v[0])
		for a := range nAtoms {
			t.Coords = append(t.Coords, linalg.Vec3{v[1+3*a], v[2+3*a], v[3+3*a]})
		}
	}
	return ens
}

// FuzzFleetWire throws arbitrary bytes at the decoders of everything
// the worker protocol carries: an input blob read as a trajectory
// (traj.DecodeMDT) or a coordinate chunk (linalg.DecodeVec3s), a unit
// result's payload read as a PSA block (linalg.DecodeFloats) or a
// Leaflet partial (JSON), and the result body's base64 payload text.
// None may panic or allocate more than a linear multiple of the input,
// whatever its header claims; whatever one accepts re-encodes and
// decodes to the same bits; and the same bytes, read as float64 bit
// patterns (NaN payloads included), round-trip through every encoder
// bit for bit — save that a trajectory with a non-finite coordinate is
// refused on decode. Seeds in testdata/fuzz: hostile trajectory and
// atom counts from the retired whole-job payloads, a truncated
// trajectory, non-canonical base64, a NaN coordinate.
func FuzzFleetWire(f *testing.F) {
	nan := make([]byte, 0, 48)
	for _, bits := range []uint64{0x7ff8000000000001, 0xfff0000000000abc, 0x8000000000000000, 0x7ff0000000000000, 0x3ff0000000000000, 0x0000000000000001} {
		nan = binary.LittleEndian.AppendUint64(nan, bits)
	}
	f.Add(nan)
	if ens := wireEnsemble(append(nan, nan...)); len(ens) > 0 {
		if raw, err := traj.EncodeMDT(ens[0], 8); err == nil {
			f.Add(raw)
		}
	}
	v := wireFloats(nan)
	f.Add(linalg.AppendVec3s(nil, []linalg.Vec3{{v[0], v[1], v[2]}, {v[3], v[4], v[5]}}))
	f.Add([]byte(base64.StdEncoding.EncodeToString(nan)))
	f.Add([]byte(`{"comps":[[0,1,2],[7,9]],"edges":3}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			tr      *traj.Trajectory
			coords  []linalg.Vec3
			vals    []float64
			part    leaflet.TilePartial
			res     UnitResult
			errT    error
			errC    error
			errF    error
			errP    error
			errR    error
			payload = []byte(`{"payload":"` + string(data) + `"}`)
		)
		for _, d := range []struct {
			name    string
			perByte uint64
			decode  func()
		}{
			{"DecodeMDT", blobAllocPerByte, func() { tr, errT = traj.DecodeMDT(data) }},
			{"DecodeVec3s", coordsAllocPerByte, func() { coords, errC = linalg.DecodeVec3s(data) }},
			{"DecodeFloats", floatsAllocPerByte, func() { vals, errF = linalg.DecodeFloats(data) }},
			{"Leaflet partial", partialAllocPerByte, func() { errP = json.Unmarshal(data, &part) }},
			{"result payload", floatsAllocPerByte, func() { errR = json.Unmarshal(payload, &res) }},
		} {
			if n, budget := heapAllocated(d.decode), d.perByte*uint64(len(data))+allocSlack; n > budget {
				t.Fatalf("%s of %d bytes allocated %d, budget %d", d.name, len(data), n, budget)
			}
		}

		// Accepted payloads survive a re-encode.
		if errT == nil {
			raw, err := traj.EncodeMDT(tr, 8)
			if err != nil {
				t.Fatalf("accepted trajectory fails to encode: %v", err)
			}
			if back, err := traj.DecodeMDT(raw); err != nil || !sameEnsembleBits(traj.Ensemble{back}, traj.Ensemble{tr}) {
				t.Fatalf("accepted trajectory does not round-trip (err %v)", err)
			}
		}
		if errC == nil {
			if back, err := linalg.DecodeVec3s(linalg.AppendVec3s(nil, coords)); err != nil || !sameCoordBits(back, coords) {
				t.Fatalf("accepted coordinates do not round-trip (err %v)", err)
			}
		}
		if errF == nil {
			if back, err := linalg.DecodeFloats(linalg.AppendFloats(nil, vals)); err != nil || !sameBits(back, vals) {
				t.Fatalf("accepted floats do not round-trip (err %v)", err)
			}
		}
		if errP == nil {
			raw, err := json.Marshal(part)
			if err != nil {
				t.Fatalf("accepted partial fails to encode: %v", err)
			}
			var back leaflet.TilePartial
			if err := json.Unmarshal(raw, &back); err != nil || !reflect.DeepEqual(back, part) {
				t.Fatalf("accepted partial does not round-trip (err %v)", err)
			}
		}
		if errR == nil {
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("accepted result fails to encode: %v", err)
			}
			var back UnitResult
			if err := json.Unmarshal(raw, &back); err != nil || !bytes.Equal(back.Payload, res.Payload) {
				t.Fatalf("accepted result payload does not round-trip (err %v)", err)
			}
		}

		// Encode → decode is the identity on bits.
		fs := wireFloats(data)
		if back, err := linalg.DecodeFloats(linalg.AppendFloats(nil, fs)); err != nil || !sameBits(back, fs) {
			t.Fatalf("floats %x do not round-trip (err %v)", data, err)
		}
		body, err := json.Marshal(UnitResult{Payload: data})
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body, &res); err != nil || !bytes.Equal(res.Payload, data) {
			t.Fatalf("payload %x does not round-trip through a result body (err %v)", data, err)
		}
		cs := make([]linalg.Vec3, len(fs)/3)
		for i := range cs {
			cs[i] = linalg.Vec3{fs[3*i], fs[3*i+1], fs[3*i+2]}
		}
		if back, err := linalg.DecodeVec3s(linalg.AppendVec3s(nil, cs)); err != nil || !sameCoordBits(back, cs) {
			t.Fatalf("coordinates %x do not round-trip (err %v)", data, err)
		}
		for _, want := range wireEnsemble(data) {
			raw, err := traj.EncodeMDT(want, 8)
			if err != nil {
				t.Fatal(err)
			}
			back, err := traj.DecodeMDT(raw)
			switch {
			case !finiteCoords(traj.Ensemble{want}):
				if !errors.Is(err, traj.ErrNonFinite) {
					t.Fatalf("trajectory of %x: non-finite coordinate not refused (err %v)", data, err)
				}
			case err != nil || !sameEnsembleBits(traj.Ensemble{back}, traj.Ensemble{want}):
				t.Fatalf("trajectory of %x does not round-trip (err %v)", data, err)
			}
		}
	})
}

// finiteCoords reports whether every coordinate of ens is finite; a
// trajectory decoder refuses any other (traj.ErrNonFinite), while frame
// times keep whatever bits they carry.
func finiteCoords(ens traj.Ensemble) bool {
	for _, t := range ens {
		for _, x := range linalg.Floats(t.Coords) {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
		}
	}
	return true
}
