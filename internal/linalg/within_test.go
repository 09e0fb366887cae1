package linalg

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// withinRef is AppendWithin's contract one pair at a time: the
// positions of the runs whose point passes Dist2(p, ·) <= c2.
func withinRef(p Vec3, xs, ys, zs []float64, runs []int32, c2 float64) []int32 {
	var out []int32
	for i := 0; i < len(runs); i += 2 {
		for q := runs[i]; q < runs[i+1]; q++ {
			if Dist2(p, Vec3{xs[q], ys[q], zs[q]}) <= c2 {
				out = append(out, q)
			}
		}
	}
	return out
}

// withinSpecials are the coordinates planted among the random ones:
// signed zeros, subnormals, huge values whose squares overflow, ±Inf
// and NaN.
var withinSpecials = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e200, -1e200,
	math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}

// Both routines, the dispatched one (AVX2 where the host has it) and the
// generic loop, return exactly the pairwise Dist2 test's positions, in
// ascending order, on random runs of every length 0–13 with candidates
// planted at exactly the cutoff and one ulp either side of it, and
// special coordinates in every lane, the masked tail's included. The
// output's prior contents are kept.
func TestAppendWithinMatchesDist2(t *testing.T) {
	r := rand.New(rand.NewPCG(30, 3))
	const m = 64
	for trial := range 3000 {
		// Every other trial centres the points on the origin, where a
		// masked-off lane's zeros would pass the test.
		o := float64(2 * (trial % 2))
		xs, ys, zs := make([]float64, m), make([]float64, m), make([]float64, m)
		for q := range xs {
			xs[q], ys[q], zs[q] = o-2+r.Float64()*4, o-2+r.Float64()*4, o-2+r.Float64()*4
		}
		p := Vec3{o, o, o}
		c2 := 2.25 // cutoff 1.5: p ± 1.5 along an axis is exactly at it
		for range r.IntN(8) {
			q := r.IntN(m)
			switch d := 1.5; r.IntN(4) {
			case 0:
				xs[q], ys[q], zs[q] = p[0]+d, p[1], p[2]
			case 1:
				xs[q], ys[q], zs[q] = p[0], p[1]-math.Nextafter(d, 2), p[2]
			case 2:
				xs[q], ys[q], zs[q] = p[0], p[1], p[2]+math.Nextafter(d, 1)
			default:
				*[]*float64{&xs[q], &ys[q], &zs[q]}[r.IntN(3)] = withinSpecials[r.IntN(len(withinSpecials))]
			}
		}
		if trial%50 == 0 {
			p[r.IntN(3)] = withinSpecials[r.IntN(len(withinSpecials))]
		}
		var runs []int32
		for lo := int32(r.IntN(3)); lo < m; {
			hi := min(lo+int32(r.IntN(14)), m)
			runs = append(runs, lo, hi)
			lo = hi + int32(r.IntN(4))
		}
		if trial%7 == 0 {
			runs = append(runs, 9, 3) // an empty run, hi < lo
		}
		want := append([]int32{-1}, withinRef(p, xs, ys, zs, runs, c2)...)
		total := 0
		for i := 0; i < len(runs); i += 2 {
			total += max(int(runs[i+1]-runs[i]), 0)
		}
		// The output has exactly the room AppendWithin reserves, and
		// sentinels after it that no store may reach.
		buf := make([]int32, 1+total+withinLanes-1+4)
		for k := range buf {
			buf[k] = -7
		}
		buf[0] = -1
		got := AppendWithin(buf[:1:1+total+withinLanes-1], p, xs, ys, zs, runs, c2)
		if &got[0] != &buf[0] || !slices.Equal(buf[len(buf)-4:], []int32{-7, -7, -7, -7}) {
			t.Fatalf("trial %d: AppendWithin reallocated or wrote past its room", trial)
		}
		generic := make([]int32, 1+total)
		generic[0] = -1
		generic = generic[:1+withinGeneric(generic[1:], xs, ys, zs, runs, p, c2)]
		if !slices.Equal(got, want) || !slices.Equal(generic, want) {
			t.Fatalf("trial %d, p %v, runs %v:\ndispatched %v\ngeneric    %v\nDist2      %v", trial, p, runs, got, generic, want)
		}
	}
}

// A non-empty run outside the columns panics on every path, before the
// assembly could read past them.
func TestAppendWithinRefusesBadRuns(t *testing.T) {
	col := make([]float64, 8)
	for _, runs := range [][]int32{{0, 9}, {-1, 2}, {0, 4, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("runs %v accepted", runs)
				}
			}()
			AppendWithin(nil, Vec3{}, col, col, col, runs, 1)
		}()
	}
	if got := AppendWithin(nil, Vec3{}, col, col[:4], col, []int32{2, 4, 7, 3}, 1); !slices.Equal(got, []int32{2, 3}) {
		t.Errorf("in-range runs %v", got)
	}
}

// BenchmarkAppendWithin times one atom's test against runs of seven
// candidates, the cell list's typical row, through the dispatched
// routine and the generic loop.
func BenchmarkAppendWithin(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 2))
	const m = 1 << 12
	xs, ys, zs := make([]float64, m), make([]float64, m), make([]float64, m)
	for q := range xs {
		xs[q], ys[q], zs[q] = r.Float64()*3, r.Float64()*3, r.Float64()*3
	}
	runs := []int32{100, 107, 300, 307, 900, 907}
	p := Vec3{1.5, 1.5, 1.5}
	hits := make([]int32, 0, 64)
	b.Run("dispatched", func(b *testing.B) {
		for range b.N {
			hits = AppendWithin(hits[:0], p, xs, ys, zs, runs, 1)
		}
	})
	b.Run("generic", func(b *testing.B) {
		for range b.N {
			hits = hits[:withinGeneric(hits[:cap(hits)], xs, ys, zs, runs, p, 1)]
		}
	})
}
