//go:build !amd64

package linalg

// useAVX2 is false off amd64: sumSquaresGeneric is the only summation.
const useAVX2 = false

func sumSquares(a, b []float64, limit float64) (float64, int) {
	return sumSquaresGeneric(a, b, limit)
}
