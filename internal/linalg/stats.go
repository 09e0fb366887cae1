package linalg

import "math"

// The frame statistics — a packed row's centroid and its radius of
// gyration — have one fixed summation order on every platform, as the
// dRMS sum does. Coordinate k of a row goes to lane k mod statsLanes,
// so lane l holds only axis l mod 3, and each lane adds its terms in
// index order. An axis's eight lanes, a, a+3, …, a+21, combine in the
// dRMS tree: ((s[a]+s[a+12]) + (s[a+6]+s[a+18])) + ((s[a+3]+s[a+15]) +
// (s[a+9]+s[a+21])) (axisSum). The centroid is each axis sum times
// 1/n; the radius of gyration sums (row[k] − c[k mod 3])², each square
// rounded on its own, in the same lanes, adds the axes as (x + y) + z
// and takes sqrt(q/n). frameSumsGeneric is that order in Go, and on
// amd64 hosts with AVX2 frameSumsAVX2 is the same order in six ymm
// registers, bit for bit (FuzzFrameStats).
const statsLanes = 24

// FrameStats returns the centroid c and the radius of gyration rg
// (sqrt(mean |xⱼ − c|²)) of one packed frame row (x₀,y₀,z₀,x₁,…), the
// side data of the pruned Hausdorff bounds. It returns zeros for an
// empty row and panics on a row that is not a whole number of xyz
// triples.
func FrameStats(row []float64) (c Vec3, rg float64) {
	if len(row)%3 != 0 {
		panic("linalg: FrameStats row must hold whole xyz triples")
	}
	n := len(row) / 3
	if n == 0 {
		return c, 0
	}
	var q float64
	if useAVX2 {
		c[0], c[1], c[2], q = frameSumsAVX2(row, 1/float64(n))
	} else {
		c[0], c[1], c[2], q = frameSumsGeneric(row, 1/float64(n))
	}
	return c, math.Sqrt(q / float64(n))
}

// frameSumsGeneric returns a row's centroid, each axis sum times inv,
// and its sum of squared deviations from it, in the lane order above.
func frameSumsGeneric(row []float64, inv float64) (cx, cy, cz, q float64) {
	var s [statsLanes]float64
	rest := row
	for len(rest) >= statsLanes {
		b := (*[statsLanes]float64)(rest)
		for k := range s {
			s[k] += b[k]
		}
		rest = rest[statsLanes:]
	}
	for k, v := range rest {
		s[k] += v
	}
	cx, cy, cz = float64(axisSum(&s, 0)*inv), float64(axisSum(&s, 1)*inv), float64(axisSum(&s, 2)*inv)

	// c[k mod 3] by lane, and the squares in the same lanes.
	var cs [statsLanes]float64
	for k := 0; k < statsLanes; k += 3 {
		cs[k], cs[k+1], cs[k+2] = cx, cy, cz
	}
	s = [statsLanes]float64{}
	rest = row
	for len(rest) >= statsLanes {
		b := (*[statsLanes]float64)(rest)
		for k := range s {
			d := b[k] - cs[k]
			s[k] += float64(d * d)
		}
		rest = rest[statsLanes:]
	}
	for k, v := range rest {
		d := v - cs[k]
		s[k] += float64(d * d)
	}
	return cx, cy, cz, (axisSum(&s, 0) + axisSum(&s, 1)) + axisSum(&s, 2)
}

// axisSum combines axis a's eight lanes in the dRMS tree.
func axisSum(s *[statsLanes]float64, a int) float64 {
	return ((s[a] + s[a+12]) + (s[a+6] + s[a+18])) + ((s[a+3] + s[a+15]) + (s[a+9] + s[a+21]))
}
