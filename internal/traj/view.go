package traj

import (
	"unsafe"

	"mdtask/internal/linalg"
)

// The package's only use of unsafe: reading coordinate memory under a
// second element type instead of copying it. Each view covers exactly
// the one allocation it is given. linalg.Vec3 is [3]float64 — 24 bytes,
// no padding (pinned by TestVec3Layout) — so n points are exactly 3n
// float64s.

// vec3Floats views points as their x,y,z components, in place.
func vec3Floats(v []linalg.Vec3) []float64 {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice(&v[0][0], 3*len(v))
}

// floatBytes views float64s as their in-memory bytes, in place — on a
// little-endian host, each value's little-endian encoding.
func floatBytes(f []float64) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), 8*len(f))
}
