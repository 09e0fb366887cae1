package linalg

import "math"

// drmsBoundSlack is the relative safety margin applied to the
// early-abandon threshold of DRMSWithin. The abandon test compares
// floating-point partial sums against bound²·n, both of which carry
// rounding error; inflating the threshold by a margin that dwarfs the
// worst-case accumulation error (~n·2⁻⁵² relative, so safe up to a few
// million atoms) guarantees an evaluation whose completed dRMS would
// compare below the bound is never abandoned. The only cost of the
// slack is finishing a handful of evaluations that land within one part
// in 10⁹ of the threshold.
const drmsBoundSlack = 1e-9

// drmsBlockAtoms is how many atoms DRMSWithin accumulates between two
// tests of the abandon threshold: the inner loop over a block has a
// constant trip count over fixed-size array views, so it carries no
// bounds checks and no data-dependent branch. An abandoning evaluation
// runs at most drmsBlockAtoms−1 atoms past the point where a test per
// atom would have stopped it; at eight (24 floats, three cache lines
// per row) that is noise, and 4 and 16 measured within noise of 8.
const drmsBlockAtoms = 8

// DRMSWithin computes dRMS between two packed coordinate rows
// (x₀,y₀,z₀,x₁,y₁,z₁,…), early-abandoning the atom sum once the partial
// sum proves the result must be at least bound: the squared per-atom
// distances are non-negative, so the running sum is monotone and
// crossing bound²·n is conclusive. The threshold is tested after every
// block of drmsBlockAtoms atoms and once more after the tail; because
// the sum is monotone, a prefix exceeds the threshold only if the next
// tested prefix does too, so an evaluation abandons exactly when a
// test-per-atom loop would — only later, never differently. It returns
// (d, true) when the evaluation completes — with d bit-identical to
// DRMS on the same coordinates, because the accumulation order and
// arithmetic are the same — and (0, false) when it abandons. A bound
// of +Inf never abandons; a NaN bound is treated like +Inf.
//
// DRMSWithin panics if the rows differ in length or are not a whole
// number of xyz triples. Two empty rows complete with d = 0.
func DRMSWithin(a, b []float64, bound float64) (float64, bool) {
	if len(a) != len(b) {
		panic("linalg: DRMSWithin rows have different lengths")
	}
	if len(a)%3 != 0 {
		panic("linalg: DRMSWithin rows must hold whole xyz triples")
	}
	n := len(a) / 3
	if n == 0 {
		return 0, true
	}
	limit := bound * bound * float64(n)
	limit += limit * drmsBoundSlack
	if math.IsNaN(limit) {
		limit = math.Inf(1)
	}
	// Each atom adds dx² + dy² + dz² to the sum, in index order, in the
	// arithmetic of Dist2 — which is what DRMS adds — so a completed
	// evaluation reproduces DRMS bit for bit. The terms are spelled out
	// on scalars because a Vec3 temporary lives in memory, not registers.
	const block = 3 * drmsBlockAtoms
	var sum float64
	for len(a) >= block {
		// Array views: one length check per block, none per atom.
		pa, pb := (*[block]float64)(a), (*[block]float64)(b)
		for i := 0; i < block; i += 3 {
			dx, dy, dz := pa[i]-pb[i], pa[i+1]-pb[i+1], pa[i+2]-pb[i+2]
			sum += dx*dx + dy*dy + dz*dz
		}
		if sum > limit {
			return 0, false
		}
		a, b = a[block:], b[block:]
	}
	for i := 0; i+2 < len(a); i += 3 {
		dx, dy, dz := a[i]-b[i], a[i+1]-b[i+1], a[i+2]-b[i+2]
		sum += dx*dx + dy*dy + dz*dz
	}
	if sum > limit {
		return 0, false
	}
	return math.Sqrt(sum / float64(n)), true
}
