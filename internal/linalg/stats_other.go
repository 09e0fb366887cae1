//go:build !amd64

package linalg

// frameSumsAVX2 exists off amd64 only so that FrameStats compiles;
// useAVX2 is the constant false there, and the call is never made.
func frameSumsAVX2(row []float64, inv float64) (cx, cy, cz, q float64) {
	panic("linalg: no AVX2 routine off amd64")
}
