//go:build !amd64

package linalg

// withinAVX2 exists off amd64 only so that AppendWithin compiles;
// useAVX2 is the constant false there, and the call is never made.
func withinAVX2(out []int32, xs, ys, zs []float64, runs []int32, p0, p1, p2, c2 float64) int {
	panic("linalg: no AVX2 routine off amd64")
}
