package linalg

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The staged engines move float64 payloads — PSA distances, Leaflet
// coordinates — as exact little-endian bit patterns, so a value that
// crosses a process or a file compares bit for bit with one that did
// not: NaN payloads and signed zeros survive, and decimal formatting
// never touches a float. These two pairs are the only codecs for them.

// AppendFloats appends vals to dst as little-endian float64 bit
// patterns, 8 bytes a value.
func AppendFloats(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeFloats decodes an AppendFloats payload; its length must be a
// multiple of 8.
func DecodeFloats(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("linalg: float payload length %d not a multiple of 8", len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// AppendVec3s appends pts to dst as little-endian float64 triples, 24
// bytes a point.
func AppendVec3s(dst []byte, pts []Vec3) []byte {
	for _, p := range pts {
		dst = AppendFloats(dst, p[:])
	}
	return dst
}

// DecodeVec3s decodes an AppendVec3s payload; its length must be a
// multiple of 24.
func DecodeVec3s(b []byte) ([]Vec3, error) {
	if len(b)%24 != 0 {
		return nil, fmt.Errorf("linalg: coordinate payload length %d not a multiple of 24", len(b))
	}
	out := make([]Vec3, len(b)/24)
	for i := range out {
		for k := range 3 {
			out[i][k] = math.Float64frombits(binary.LittleEndian.Uint64(b[24*i+8*k:]))
		}
	}
	return out, nil
}
