package linalg

// withinAVX2 is withinGeneric in AVX2, four candidates per instruction:
// it writes to out, from its start, the positions of the runs that pass
// the test and returns how many it wrote. It always stores a whole step
// of four positions, so out must have room for every candidate plus
// three, and the runs must lie in the columns.
//
//go:noescape
func withinAVX2(out []int32, xs, ys, zs []float64, runs []int32, p0, p1, p2, c2 float64) int
