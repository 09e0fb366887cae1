package linalg

// useAVX2 is decided once, at init: the CPU has AVX2 and the operating
// system saves the ymm registers across context switches.
var useAVX2 = cpuHasAVX2()

// sumSquares is sumSquaresGeneric's summation, in AVX2 where the host
// has it.
func sumSquares(a, b []float64, limit float64) (float64, int) {
	if useAVX2 {
		return sumSquaresAVX2(a, b, limit)
	}
	return sumSquaresGeneric(a, b, limit)
}

// sumSquaresAVX2 is sumSquaresGeneric in two ymm accumulators, lanes
// 0–3 and 4–7, with the same rounding at every step (no FMA).
//
//go:noescape
func sumSquaresAVX2(a, b []float64, limit float64) (sum float64, read int)

// cpuid executes CPUID with the given leaf (EAX) and subleaf (ECX).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of extended control register XCR0.
func xgetbv0() uint32

func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const sseState, avxState = 1 << 1, 1 << 2 // XCR0: the OS saves xmm and ymm
	if xgetbv0()&(sseState|avxState) != sseState|avxState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
