package linalg

// frameSumsAVX2 is frameSumsGeneric in six ymm accumulators, lanes
// 0–3 to 20–23, with the same rounding at every step (no FMA).
//
//go:noescape
func frameSumsAVX2(row []float64, inv float64) (cx, cy, cz, q float64)
