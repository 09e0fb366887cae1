package linalg

import (
	"math"
	"testing"
)

func TestFloatCodec(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1.5, -2.25, 1e300, math.Inf(-1), math.Float64frombits(0x7ff8000000000001)}
	raw := AppendFloats(nil, vals)
	if len(raw) != 8*len(vals) {
		t.Fatalf("encoded %d values into %d bytes", len(vals), len(raw))
	}
	got, err := DecodeFloats(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("float %d: %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
		}
	}
	if _, err := DecodeFloats([]byte{1, 2, 3}); err == nil {
		t.Error("odd-length float payload accepted")
	}

	pts := []Vec3{{vals[0], vals[1], vals[2]}, {vals[3], vals[4], vals[5]}}
	raw = AppendVec3s([]byte{'x'}, pts)
	if string(raw[:1]) != "x" || string(raw[1:]) != string(AppendFloats(nil, vals[:6])) {
		t.Fatalf("a point is not its three floats in order: %x", raw)
	}
	back, err := DecodeVec3s(raw[1:])
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(pts) || string(AppendVec3s(nil, back)) != string(raw[1:]) {
		t.Fatalf("points %v, want %v", back, pts)
	}
	if _, err := DecodeVec3s(raw[1 : len(raw)-1]); err == nil {
		t.Error("truncated coordinate payload accepted")
	}
}
