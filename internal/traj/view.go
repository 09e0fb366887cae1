package traj

import (
	"encoding/binary"
	"unsafe"
)

// The package's only use of unsafe: reading memory under a second
// element type instead of copying it. Each view covers exactly the one
// allocation it is given. (Points as floats is linalg.Floats.)

// littleEndian reports whether the host stores a float as its
// little-endian encoding — the bytes Digest hashes and the bytes an MDT
// payload holds — so either can be read as it lies.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes views float64s as their in-memory bytes, in place — on a
// little-endian host, each value's little-endian encoding.
func floatBytes(f []float64) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), 8*len(f))
}

// float32sLE views little-endian float32 encodings as float32s, in
// place. ok is false — and the caller decodes byte by byte — on a
// big-endian host or when b does not start on a 4-byte boundary (an
// MDT payload sliced after a header of variable length).
func float32sLE(b []byte) (v []float32, ok bool) {
	if len(b) == 0 {
		return nil, true
	}
	if !littleEndian || uintptr(unsafe.Pointer(&b[0]))%4 != 0 {
		return nil, false
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4), true
}

// float64sLE is float32sLE for float64 encodings and 8-byte boundaries.
func float64sLE(b []byte) (v []float64, ok bool) {
	if len(b) == 0 {
		return nil, true
	}
	if !littleEndian || uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8), true
}
