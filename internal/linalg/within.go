package linalg

import "slices"

// withinLanes is how many candidates one step of the lane routine
// tests: four float64s, one ymm register per coordinate on amd64.
const withinLanes = 4

// AppendWithin appends to hits, in ascending order, every position q of
// the runs [runs[i], runs[i+1]) (i even, runs ascending and disjoint)
// whose point (xs[q], ys[q], zs[q]) passes Dist2(p, ·) <= c2, and
// returns the extended slice. A run with hi <= lo is empty.
//
// Each candidate's test is computed on its own: dx = p[0]−xs[q] and the
// same for y and z, then (float64(dx*dx)+float64(dy*dy))+float64(dz*dz)
// <= c2, Dist2's rounded operations in Dist2's order, with no FMA and
// nothing summed across candidates. So every candidate gets Dist2's
// bits and its decision, a NaN distance included (it fails). On amd64
// hosts with AVX2 the runs are tested four candidates per instruction
// (withinAVX2), chosen once at init; withinGeneric is the reference,
// and the two return the same positions (TestAppendWithinMatchesDist2,
// and FuzzCellScan through the Leaflet cell scan).
//
// AppendWithin panics if runs has odd length or a non-empty run lies
// outside any column.
func AppendWithin(hits []int32, p Vec3, xs, ys, zs []float64, runs []int32, c2 float64) []int32 {
	if len(runs)%2 != 0 {
		panic("linalg: AppendWithin runs must be lo, hi pairs")
	}
	m := min(len(xs), len(ys), len(zs))
	total := 0
	for i := 0; i < len(runs); i += 2 {
		lo, hi := int(runs[i]), int(runs[i+1])
		if hi <= lo {
			continue
		}
		if lo < 0 || hi > m {
			panic("linalg: AppendWithin run outside the columns")
		}
		total += hi - lo
	}
	hits = slices.Grow(hits, total+withinLanes-1)
	out := hits[len(hits):cap(hits)]
	var n int
	if useAVX2 {
		n = withinAVX2(out, xs, ys, zs, runs, p[0], p[1], p[2], c2)
	} else {
		n = withinGeneric(out, xs, ys, zs, runs, p, c2)
	}
	return hits[:len(hits)+n]
}

// withinGeneric is AppendWithin's test in Go, one candidate at a time:
// it writes the passing positions to out from its start and returns
// how many it wrote. Every position is written to the slot after the
// last hit and kept by advancing past it only when the test passes,
// which the compiler makes a conditional move instead of a branch the
// CPU would mispredict a third of the time. out has room for every
// candidate.
func withinGeneric(out []int32, xs, ys, zs []float64, runs []int32, p Vec3, c2 float64) int {
	n := 0
	for i := 0; i < len(runs); i += 2 {
		lo, hi := runs[i], runs[i+1]
		if hi <= lo {
			continue
		}
		x, y, z := xs[lo:hi], ys[lo:hi], zs[lo:hi]
		slots := out[n : n+len(x)]
		k := 0
		for j := range x {
			dx, dy, dz := p[0]-x[j], p[1]-y[j], p[2]-z[j]
			slots[k] = lo + int32(j)
			if float64(dx*dx)+float64(dy*dy)+float64(dz*dz) <= c2 {
				k++
			}
		}
		n += k
	}
	return n
}
