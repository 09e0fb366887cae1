package hausdorff

import (
	"fmt"
	"math"
	"testing"

	"mdtask/internal/traj"
)

// sweepKernels are the three seeded directed kernels without their
// probe row — rows 0…na−1 in order, built from the kernels' own row
// functions — as the reference the probe-first order is costed against.
func sweepKernels(a, b *traj.Trajectory) map[string]func(seed float64, c *Counters) float64 {
	fa, fb := Frames(a), Frames(b)
	pa, pb := a.Packed(), b.Packed()
	// chain sweeps rows 0…na−1 of the packed kernels in order, carrying
	// the temporal chain from row to row as the kernels do.
	chain := func(seed float64, row func(i, jstar int, dstar, cmax float64) (float64, int, float64)) float64 {
		cmax, jstar, dstar := seed, 0, math.Inf(1)
		for i := 0; i < pa.NFrames; i++ {
			if i > 0 {
				dstar += pa.StepDRMS[i]
				dstar += dstar * boundSlack
			}
			cmax, jstar, dstar = row(i, jstar, dstar, cmax)
		}
		return cmax
	}
	return map[string]func(float64, *Counters) float64{
		"early-break": func(seed float64, c *Counters) float64 {
			cmax := seed
			for _, f := range fa {
				cmax = earlyBreakRow(f, fb, cmax, c)
			}
			return cmax
		},
		"pruned": func(seed float64, c *Counters) float64 {
			return chain(seed, func(i, jstar int, dstar, cmax float64) (float64, int, float64) {
				return prunedRow(pa, pb, i, jstar, dstar, cmax, c)
			})
		},
		"indexed": func(seed float64, c *Counters) float64 {
			s := indexedScan{a: pa, b: pb, tree: pb.FrameTree(), c: c}
			var frontier []nodeItem
			return chain(seed, func(i, jstar int, dstar, cmax float64) (cm float64, js int, ds float64) {
				cm, js, ds, frontier = s.row(frontier, i, jstar, dstar, cmax)
				return cm, js, ds
			})
		},
	}
}

// probeRow must name a row of A and a column of B whenever both are
// non-empty, and the rule is the one docs/kernels.md states: the last
// row, at the column proportionally as far along B.
func TestProbeRowInRange(t *testing.T) {
	for na := 1; na <= 40; na++ {
		for nb := 1; nb <= 40; nb++ {
			row, col := probeRow(na, nb)
			if row != na-1 || col < 0 || col >= nb {
				t.Fatalf("probeRow(%d, %d) = (%d, %d)", na, nb, row, col)
			}
			if na == nb && col != row {
				t.Fatalf("probeRow(%d, %d) = (%d, %d), want the diagonal", na, nb, row, col)
			}
		}
	}
}

// Visiting the probe row first changes no bit of any directed pass —
// the plain sweep returns the same max(seed, h) — and costs at most the
// probe row's own |B| dRMS evaluations over it, wherever the farthest
// frame sits and whatever the seed.
func TestProbeRowCostsAtMostOneRow(t *testing.T) {
	for name, pair := range symmetricCases() {
		for _, dir := range [][2]*traj.Trajectory{{pair[0], pair[1]}, {pair[1], pair[0]}} {
			a, b := dir[0], dir[1]
			if a.NFrames() == 0 || b.NFrames() == 0 {
				continue
			}
			name := fmt.Sprintf("%s (%s→%s)", name, a.Name, b.Name)
			h := DirectedNaive(Frames(a), Frames(b))
			probed, swept := seededKernels(a, b), sweepKernels(a, b)
			for kernel := range probed {
				for _, seed := range []float64{0, h / 2, h} {
					var cp, cs Counters
					got, want := probed[kernel](seed, &cp), swept[kernel](seed, &cs)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s/%s seed %v: %x probe first, %x swept in order", name, kernel, seed, got, want)
					}
					if cp.Total() != cs.Total() {
						t.Errorf("%s/%s seed %v: %d pairs accounted probe first, %d swept in order", name, kernel, seed, cp.Total(), cs.Total())
					}
					if extra := dRMSCalls(cp) - dRMSCalls(cs); extra > int64(b.NFrames()) {
						t.Errorf("%s/%s seed %v: the probe costs %d dRMS evaluations over the plain sweep's %d, want ≤ |B| = %d",
							name, kernel, seed, extra, dRMSCalls(cs), b.NFrames())
					}
				}
			}
		}
	}
}

// The probe must pay where it is meant to: at the recorded shape and on
// long trajectories, in both regimes, two carried directed passes
// started probe first run strictly fewer dRMS evaluations than the same
// two passes swept in order.
func TestProbeRowSavesEvaluations(t *testing.T) {
	shapes := recordedShapePairs()
	for kind, pairs := range ensemblePairs(24, 96) {
		shapes[kind+", 96 frames"] = pairs
	}
	for name, pairs := range shapes {
		for _, kernel := range []string{"early-break", "pruned", "indexed"} {
			var probed, swept Counters
			for _, p := range pairs {
				a, b := p[0], p[1]
				seededKernels(b, a)[kernel](seededKernels(a, b)[kernel](0, &probed), &probed)
				sweepKernels(b, a)[kernel](sweepKernels(a, b)[kernel](0, &swept), &swept)
			}
			if got, was := dRMSCalls(probed), dRMSCalls(swept); got >= was {
				t.Errorf("%s/%s: %d dRMS evaluations probe first, %d swept in order", name, kernel, got, was)
			}
		}
	}
}
