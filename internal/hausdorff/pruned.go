package hausdorff

import (
	"math"

	"mdtask/internal/linalg"
	"mdtask/internal/traj"
)

// boundSlack is the relative safety margin applied to every pruning
// bound in the pruned kernel. The bounds below are exact in real
// arithmetic; the computed quantities (centroids, radii of gyration,
// step dRMS, and the bounds assembled from them) carry floating-point
// rounding error of at most ~n·2⁻⁵² relative for n-atom frames. Lower
// bounds are therefore deflated — and upper bounds inflated — by a
// margin that dwarfs that error for any realistic atom count (safe to a
// few million atoms), so a frame pair is only ever skipped when its
// fully evaluated dRMS provably could not have changed the result. The
// cost is evaluating a handful of pairs that land within one part in
// 10⁹ of a bound.
const boundSlack = 1e-9

// DirectedPruned computes the directed Hausdorff distance
// h(A→B) = max over a of min over b of dRMS(a, b) on packed
// trajectories, returning exactly the same value as DirectedNaive —
// bit for bit — while skipping every evaluation that cannot change it.
// Three exact pruning devices are combined:
//
//  1. Whole-pair skip by lower bound: writing each frame as its
//     centroid c plus a centered residue of radius of gyration r,
//     dRMS(x, y)² = |c(x)−c(y)|² + mean|u−v|², and by Cauchy–Schwarz
//     mean|u−v|² ≥ (r(x)−r(y))², so
//     dRMS(x, y) ≥ sqrt(|c(x)−c(y)|² + (r(x)−r(y))²).
//     Pairs whose bound already reaches the row's running minimum are
//     dismissed in O(1) using only precomputed per-frame statistics.
//  2. Bounded evaluation: pairs that survive the bound run through
//     linalg.DRMSWithin with the running minimum as the bound, and
//     abandon once a tested prefix of the atom sum (every eight atoms)
//     exceeds it — early on diverging paths, near the end of the sum
//     on tight random walks, where all distances are alike. A
//     completed evaluation is bit-identical to linalg.DRMS.
//  3. Temporal coherence: the inner scan starts at the previous outer
//     frame's argmin (consecutive MD frames have nearby nearest
//     neighbours, driving the running minimum down immediately), and
//     whole rows are skipped through the dRMS triangle inequality:
//     d(aᵢ, b*) ≤ d(aᵢ₋₁, b*) + dRMS(aᵢ₋₁, aᵢ) chains an upper bound on
//     each row's minimum along the trajectory, and a row whose bound
//     does not exceed the running maximum cannot raise it.
//
// The Taha & Hanbury early break of DirectedEarlyBreak is applied as
// well, and like it the pass visits its probe row first (probeRow), so
// that the break and the row skip compare against a running maximum
// that is near h(A→B) from the first swept row on. Empty inputs follow
// DirectedNaive: 0 when A is empty, +Inf when A is non-empty but B is
// empty.
func DirectedPruned(a, b *traj.Packed, c *Counters) float64 {
	return directedPruned(a, b, 0, c)
}

// directedPruned is DirectedPruned with the running maximum started at
// seed instead of 0: it returns max(seed, h(A→B)). Both devices that
// compare against the running maximum — the temporal-chain row skip and
// the Taha & Hanbury break — then fire for every row whose minimum is
// provably at most seed, which is what DistancePacked's reverse pass
// uses the forward result for. An empty A returns seed; a non-empty A
// against an empty B is +Inf whatever the seed.
//
// The probe row is visited before the sweep, on a chain of its own
// (dstar = +Inf: nothing is known about it yet, so only a +Inf seed
// skips it), and the sweep then runs rows 0…na−1 in order, its chain
// starting at row 0 and stepping over the probed row as over any
// skipped row.
func directedPruned(a, b *traj.Packed, seed float64, c *Counters) float64 {
	na, nb := a.NFrames, b.NFrames
	if na == 0 {
		return seed
	}
	if nb == 0 {
		return math.Inf(1)
	}
	probe, col := probeRow(na, nb)
	cmax, _, _ := prunedRow(a, b, probe, col, math.Inf(1), seed, c)
	// jstar anchors the temporal-coherence chain: a column index whose
	// distance to the current outer frame is known to be at most dstar.
	// After each scanned row it is the row's argmin with dstar the exact
	// evaluated distance; across skipped rows dstar grows by the step
	// dRMS (triangle inequality), keeping the bound valid.
	jstar := 0
	dstar := math.Inf(1)
	for i := 0; i < na; i++ {
		if i > 0 {
			dstar += a.StepDRMS[i]
			dstar += dstar * boundSlack
		}
		if i == probe {
			continue
		}
		cmax, jstar, dstar = prunedRow(a, b, i, jstar, dstar, cmax, c)
	}
	return cmax
}

// prunedRow visits row i of a directed pass whose running maximum is
// cmax, given a column jstar known to lie within dstar of the row's
// frame. It returns the running maximum after the row and the chain
// anchor the row leaves behind: its argmin and exact minimum when it was
// scanned, jstar and dstar unchanged when it was skipped.
func prunedRow(a, b *traj.Packed, i, jstar int, dstar, cmax float64, c *Counters) (float64, int, float64) {
	nb := b.NFrames
	if dstar <= cmax {
		// Row skip: min over b of d(a_i, ·) ≤ d(a_i, b_jstar) ≤ dstar
		// ≤ cmax, so this row cannot raise the max.
		c.prune(int64(nb))
		return cmax, jstar, dstar
	}
	rowA := a.Row(i)
	ca := a.Centroids[i]
	ra := a.RadGyr[i]
	cmin := math.Inf(1)
	argmin := jstar
	for k := 0; k < nb; k++ {
		j := jstar + k
		if j >= nb {
			j -= nb
		}
		dc := ca.Sub(b.Centroids[j])
		dr := ra - b.RadGyr[j]
		lb2 := dc.Norm2() + dr*dr
		lb2 -= lb2 * (2 * boundSlack)
		if lb2 >= cmin*cmin {
			// The pair provably cannot lower the running minimum.
			c.prune(1)
			continue
		}
		d, ok := linalg.DRMSWithin(rowA, b.Row(j), cmin)
		if !ok {
			c.abandon()
			continue
		}
		c.eval()
		if d < cmin {
			cmin, argmin = d, j
		}
		if cmin < cmax {
			// Taha & Hanbury: the row's minimum is already below the
			// running maximum, so the row cannot raise it.
			c.prune(int64(nb - k - 1))
			break
		}
	}
	// cmin is the exact distance to argmin: the first surviving pair
	// of a row always completes (nothing skips or abandons against an
	// infinite minimum), and updates thereafter are completed
	// evaluations.
	if cmin > cmax {
		cmax = cmin
	}
	return cmax, argmin, cmin
}

// DistancePacked computes the symmetric Hausdorff distance
// H(A,B) = max(h(A→B), h(B→A)) with the pruned kernel, folding
// frame-pair accounting into c (which may be nil). It returns exactly
// the same value as DistanceFrames with the Naive method. The two
// directed passes share one running maximum: the reverse pass starts
// from h(A→B), since h(B→A) matters only where it exceeds it, so every
// reverse row whose minimum is at most h(A→B) is skipped or broken off
// instead of being scanned to its exact minimum (docs/kernels.md, "The
// symmetric distance").
func DistancePacked(a, b *traj.Packed, c *Counters) float64 {
	return directedPruned(b, a, directedPruned(a, b, 0, c), c)
}
