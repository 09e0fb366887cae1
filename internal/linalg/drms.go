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

// The sum of squares behind every dRMS — DRMS, DRMSWithin and so every
// kernel — is one fixed order, the same on every platform. Coordinate i
// of a packed row goes to lane i mod drmsLanes, each lane adds its terms
// in index order, and the lanes combine in one tree,
// ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)). Each term is rounded on its
// own (float64(d*d)), so no compiler may fuse it into an FMA. The
// threshold test comes after every block of drmsBlockFloats coordinates
// (eight atoms: three rounds of the eight lanes) and once after the
// tail. sumSquaresGeneric is that order in Go, and on amd64 hosts with
// AVX2 sumSquaresAVX2 is the same order in two ymm registers, bit for
// bit (FuzzDRMSWithin).
const (
	drmsLanes       = 8
	drmsBlockFloats = 3 * drmsLanes
)

// DRMS computes the paper's per-frame metric dRMS(a, b): the root mean
// square of the Euclidean distances between corresponding points of two
// frames. It does not superimpose the frames first. It is DRMSWithin
// over the frames' coordinates with an infinite bound.
//
// DRMS panics if the frames have different lengths; it returns 0 for two
// empty frames.
func DRMS(a, b []Vec3) float64 {
	if len(a) != len(b) {
		panic("linalg: DRMS frames have different lengths")
	}
	d, _ := DRMSWithin(Floats(a), Floats(b), math.Inf(1))
	return d
}

// DRMSWithin computes dRMS between two packed coordinate rows
// (x₀,y₀,z₀,x₁,y₁,z₁,…), early-abandoning the sum once it proves the
// result must be at least bound. Each lane sum adds non-negative terms,
// so it is monotone, and so is the combine tree: the total over a
// prefix of the row never exceeds the total over a longer prefix, and
// crossing bound²·n is conclusive. The threshold is tested after every
// block and once more after the tail, so an evaluation abandons exactly
// when a test after every coordinate would — only later, never
// differently. It returns (d, true) when the evaluation completes, with
// d bit-identical to DRMS on the same coordinates (DRMS is this
// summation with an infinite bound), and (0, false) when it abandons. A
// bound of +Inf never abandons; a NaN bound is treated like +Inf.
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
	limit := drmsLimit(bound, n)
	sum, _ := sumSquares(a, b, limit)
	if sum > limit {
		return 0, false
	}
	return math.Sqrt(sum / float64(n)), true
}

// drmsLimit is the sum of squares past which n atoms cannot come out
// below bound: bound²·n, widened by drmsBoundSlack (each product
// rounded before the add, so no platform fuses one into an FMA), and
// +Inf for a NaN bound.
func drmsLimit(bound float64, n int) float64 {
	limit := float64(bound * bound * float64(n))
	limit += float64(limit * drmsBoundSlack)
	if math.IsNaN(limit) {
		return math.Inf(1)
	}
	return limit
}

// sumSquaresGeneric returns the lane-order sum of (a[i]−b[i])² over
// both rows (len(b) ≥ len(a)) and the number of coordinates read. It
// stops after the first whole block whose sum exceeds limit, and
// returns that block's sum and end; otherwise it returns the sum over
// the whole row, whatever it is, and len(a).
func sumSquaresGeneric(a, b []float64, limit float64) (sum float64, read int) {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	n := len(a)
	b = b[:n]
	for len(a) >= drmsBlockFloats {
		// Array views: one length check per block, none per term.
		pa, pb := (*[drmsBlockFloats]float64)(a), (*[drmsBlockFloats]float64)(b)
		// Three rounds of eight lanes, four terms in flight at a time:
		// with eight, the terms and the lanes no longer fit the sixteen
		// registers of amd64 and a lane spills.
		d0, d1, d2, d3 := pa[0]-pb[0], pa[1]-pb[1], pa[2]-pb[2], pa[3]-pb[3]
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
		d4, d5, d6, d7 := pa[4]-pb[4], pa[5]-pb[5], pa[6]-pb[6], pa[7]-pb[7]
		s4 += float64(d4 * d4)
		s5 += float64(d5 * d5)
		s6 += float64(d6 * d6)
		s7 += float64(d7 * d7)
		d0, d1, d2, d3 = pa[8]-pb[8], pa[9]-pb[9], pa[10]-pb[10], pa[11]-pb[11]
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
		d4, d5, d6, d7 = pa[12]-pb[12], pa[13]-pb[13], pa[14]-pb[14], pa[15]-pb[15]
		s4 += float64(d4 * d4)
		s5 += float64(d5 * d5)
		s6 += float64(d6 * d6)
		s7 += float64(d7 * d7)
		d0, d1, d2, d3 = pa[16]-pb[16], pa[17]-pb[17], pa[18]-pb[18], pa[19]-pb[19]
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
		d4, d5, d6, d7 = pa[20]-pb[20], pa[21]-pb[21], pa[22]-pb[22], pa[23]-pb[23]
		s4 += float64(d4 * d4)
		s5 += float64(d5 * d5)
		s6 += float64(d6 * d6)
		s7 += float64(d7 * d7)
		a, b = a[drmsBlockFloats:], b[drmsBlockFloats:]
		if t := ((s0 + s4) + (s2 + s6)) + ((s1 + s5) + (s3 + s7)); t > limit {
			return t, n - len(a)
		}
	}
	// The tail, fewer than eight atoms: a block is a whole number of
	// rounds, so tail coordinate j goes to lane j mod 8.
	for j := range a {
		d := a[j] - b[j]
		switch t := float64(d * d); j % drmsLanes {
		case 0:
			s0 += t
		case 1:
			s1 += t
		case 2:
			s2 += t
		case 3:
			s3 += t
		case 4:
			s4 += t
		case 5:
			s5 += t
		case 6:
			s6 += t
		default:
			s7 += t
		}
	}
	return ((s0 + s4) + (s2 + s6)) + ((s1 + s5) + (s3 + s7)), n
}
