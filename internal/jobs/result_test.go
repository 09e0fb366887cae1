package jobs

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"mdtask/internal/graph"
	"mdtask/internal/leaflet"
	"mdtask/internal/proptest"
	"mdtask/internal/psa"
)

// mustResultDigest returns r's result digest, failing t if r cannot be
// encoded.
func mustResultDigest(t testing.TB, r *Result) string {
	t.Helper()
	d, err := resultDigest(r)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sameAsJSON returns nil when appendResult, appending to a non-empty
// dst, writes exactly json.Marshal's bytes for r after dst's, within
// resultSizeBound, or fails exactly where json.Marshal fails and then
// leaves dst as it was.
func sameAsJSON(r *Result) error {
	const prefix = "prefix,"
	want, wantErr := json.Marshal(r)
	got, gotErr := appendResult([]byte(prefix), r)
	switch {
	case (wantErr == nil) != (gotErr == nil):
		return fmt.Errorf("json.Marshal error %v, appendResult error %v", wantErr, gotErr)
	case gotErr != nil:
		if string(got) != prefix {
			return fmt.Errorf("appendResult failed (%v) but changed dst to %q", gotErr, got)
		}
	case string(got) != prefix+string(want):
		return fmt.Errorf("appendResult wrote\n%s\njson.Marshal wrote\n%s%s", got, prefix, want)
	case r != nil && len(want) > resultSizeBound(r):
		return fmt.Errorf("encoding is %d bytes, past its bound %d: dst grew more than once", len(want), resultSizeBound(r))
	}
	return nil
}

// encodeSeeds are the hand cases at the edges of encoding/json's
// format: the 'f'/'e' switch at 1e-6 and 1e21, the e-07 → e-7 clean-up,
// −0, a subnormal, the largest float, the values json.Marshal refuses,
// nil against empty slices, and the extreme integers.
func encodeSeeds() map[string]*Result {
	floats := func(vs ...float64) *Result { return &Result{Matrix: &psa.Matrix{N: len(vs), Data: vs}} }
	return map[string]*Result{
		"nil":                nil,
		"empty":              {},
		"nil data":           {Matrix: &psa.Matrix{N: 3}},
		"empty data":         {Matrix: &psa.Matrix{Data: []float64{}}},
		"zeros":              floats(0, math.Copysign(0, -1)),
		"1e-6 and 1e-7":      floats(1e-6, 1e-7, -1e-7, 9.99999e-7),
		"1e20 and 1e21":      floats(1e20, 1e21, -1e21, 999999999999999900000, 1.5e300),
		"subnormal":          floats(math.SmallestNonzeroFloat64, -4.9e-324, 2.2250738585072014e-308),
		"max":                floats(math.MaxFloat64, -math.MaxFloat64),
		"plain":              floats(0.1, 1.0/3, 123456.789, -2.5, 1),
		"+Inf":               floats(1, math.Inf(1)),
		"-Inf":               floats(math.Inf(-1)),
		"NaN":                floats(0, 0, math.NaN()),
		"leaflet nil slices": {Leaflet: &leaflet.Result{}},
		"leaflet empty slices": {Leaflet: &leaflet.Result{
			Labels: []int32{}, Components: []graph.Component{}}},
		"leaflet nil component": {Leaflet: &leaflet.Result{
			Labels: []int32{0, 1}, Components: []graph.Component{nil, {}, {1}}}},
		"int extremes": {Leaflet: &leaflet.Result{
			Labels:     []int32{math.MinInt32, math.MaxInt32, -1, 0, 9, 10, 99, 100},
			Components: []graph.Component{{math.MinInt32}, {0, 1}},
			Stats: leaflet.Stats{Tasks: math.MinInt, Edges: math.MaxInt64,
				BroadcastBytes: math.MinInt64, ShuffleBytes: -7}}},
		"both": {Matrix: &psa.Matrix{N: -1, Data: []float64{2}},
			Leaflet: &leaflet.Result{Labels: []int32{0, 0}, Components: []graph.Component{{0, 1}}}},
	}
}

// TestEncodeResultMatchesJSON checks appendResult against json.Marshal
// byte for byte: on the hand seeds, then on every Result testing/quick
// generates, so a field added to Result or to a type under it fails
// here until the encoder writes it. quick draws floats of magnitude
// near MaxFloat64 only, so each value is scaled by its own power of two
// down to zero, across the subnormals and both format switches.
func TestEncodeResultMatchesJSON(t *testing.T) {
	for name, r := range encodeSeeds() {
		if err := sameAsJSON(r); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	proptest.Check(t, func(r Result, shift uint16) bool {
		if r.Matrix != nil {
			for i := range r.Matrix.Data {
				r.Matrix.Data[i] = math.Ldexp(r.Matrix.Data[i], -int((int(shift)+97*i)%2100))
			}
		}
		if err := sameAsJSON(&r); err != nil {
			t.Log(err)
			return false
		}
		return true
	}, nil)
}

// resultFromBytes builds a Result from fuzz input: a flags byte (bit 0
// matrix, bit 1 leaflet, bits 2–4 nil data, labels and components),
// then each present field's length byte and big-endian values; input
// that runs out reads as zeros.
func resultFromBytes(data []byte) *Result {
	next := func(n int) []byte {
		out := make([]byte, n)
		data = data[copy(out, data):]
		return out
	}
	u64 := func() uint64 { return binary.BigEndian.Uint64(next(8)) }
	int32s := func() []int32 {
		vs := make([]int32, next(1)[0]%64)
		for i := range vs {
			vs[i] = int32(binary.BigEndian.Uint32(next(4)))
		}
		return vs
	}
	flags := next(1)[0]
	r := &Result{}
	if flags&1 != 0 {
		r.Matrix = &psa.Matrix{N: int(int64(u64()))}
		if flags&4 == 0 {
			r.Matrix.Data = make([]float64, next(1)[0]%64)
			for i := range r.Matrix.Data {
				r.Matrix.Data[i] = math.Float64frombits(u64())
			}
		}
	}
	if flags&2 != 0 {
		l := &leaflet.Result{}
		if flags&8 == 0 {
			l.Labels = int32s()
		}
		if flags&16 == 0 {
			l.Components = make([]graph.Component, next(1)[0]%8)
			for i := range l.Components {
				l.Components[i] = int32s()
			}
		}
		l.Stats = leaflet.Stats{Tasks: int(int64(u64())), Edges: int64(u64()),
			BroadcastBytes: int64(u64()), ShuffleBytes: int64(u64())}
		r.Leaflet = l
	}
	return r
}

// FuzzEncodeResult checks appendResult against json.Marshal on Results
// built from fuzz input (resultFromBytes), float bit patterns included.
// Seed corpus: f.Add below plus testdata/fuzz/FuzzEncodeResult.
func FuzzEncodeResult(f *testing.F) {
	f.Add([]byte{})
	f.Add(append([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 2}, floatBytes(1e-7, math.Copysign(0, -1))...))
	f.Add(append([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 2}, floatBytes(1e21, math.Inf(1))...))
	f.Add([]byte{2, 2, 0x80, 0, 0, 0, 0x7f, 0xff, 0xff, 0xff, 1, 0})
	f.Add([]byte{0x1f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := sameAsJSON(resultFromBytes(data)); err != nil {
			t.Fatal(err)
		}
	})
}

// floatBytes is the big-endian bit patterns of vs, as resultFromBytes
// reads them.
func floatBytes(vs ...float64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}
