package hausdorff

import (
	"math"

	"mdtask/internal/balltree"
	"mdtask/internal/linalg"
	"mdtask/internal/traj"
)

// nodeItem is one entry of the best-first descent frontier, ordered by
// a conservative lower bound on dRMS between the current row frame and
// the candidate. id encodes the candidate kind: id ≥ 0 is a ball-tree
// node (bounding all its member frames); id < 0 is an individual frame
// pair j = ^id that survived its leaf's bound check and waits for
// evaluation. Keeping pairs in the same heap makes the descent
// best-first at pair granularity: a dRMS evaluation runs only when that
// pair's bound is the smallest remaining, which is what lets the
// indexed kernel complete fewer full evaluations than the flat pruned
// scan.
type nodeItem struct {
	lb float64
	id int32
}

// remainingNodes counts the node-typed items in a frontier, for the
// NodesPruned accounting of a wholesale dismissal (pair-typed items are
// settled by the caller's unsettled-pair count instead).
func remainingNodes(h []nodeItem) int64 {
	var n int64
	for _, it := range h {
		if it.id >= 0 {
			n++
		}
	}
	return n
}

// heapPush adds an item to the min-heap (ordered by lb) and returns the
// extended slice. A hand-rolled slice heap avoids the per-item interface
// boxing of container/heap in the kernel's hot loop.
func heapPush(h []nodeItem, it nodeItem) []nodeItem {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].lb <= h[i].lb {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

// heapPop removes and returns the minimum-bound item.
func heapPop(h []nodeItem) (nodeItem, []nodeItem) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		small := i
		if l := 2*i + 1; l < n && h[l].lb < h[small].lb {
			small = l
		}
		if r := 2*i + 2; r < n && h[r].lb < h[small].lb {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top, h
}

// frameNodeBound returns a conservative lower bound on dRMS between the
// query signature q and any member frame of the node: the exact bound
// ‖q − center‖ − radius (triangle inequality over the 4-D signature
// metric, see balltree.FrameTree) deflated by an absolute margin of
// (‖q − center‖ + radius)·boundSlack. The margin is absolute rather
// than relative because the subtraction can cancel catastrophically
// when the query sits near the ball's surface — the deflation must
// dominate the rounding error of the inputs, not of the difference.
func frameNodeBound(q balltree.Point4, n *balltree.FrameNode) float64 {
	d := q.Dist(n.Center)
	return (d - n.Radius) - float64((d+n.Radius)*boundSlack)
}

// directedIndexed computes the directed Hausdorff distance
// h(A→B) = max over a of min over b of dRMS(a, b) on packed
// trajectories, returning exactly the same value as directedNaive — bit
// for bit — by best-first branch-and-bound descent over B's frame-
// signature ball tree (traj.Packed.FrameTree). It applies the same
// three exact pruning devices as directedPruned — the centroid/rg lower
// bound, bounded evaluation through linalg.DRMSWithin, and the
// temporal-coherence row chain — but aggregates the pair bound into
// per-node bounds, so the inner search visits O(log |B|) nodes instead
// of scanning all |B| frames whenever the bound separates candidates:
//
//  1. Warm start: the previous row's argmin is evaluated exactly first,
//     seeding the running minimum before any tree node is touched
//     (consecutive MD frames have nearby nearest neighbours).
//  2. Best-first descent: frontier candidates — tree nodes and, once a
//     leaf is expanded, its surviving individual pairs — are processed
//     in ascending lower-bound order, so a dRMS evaluation runs only
//     when that pair's bound is the smallest remaining. The moment the
//     smallest frontier bound reaches the running minimum, every
//     remaining candidate is provably unable to lower it and the whole
//     frontier is dismissed at once.
//  3. Leaf pairs pass through exactly the pruned kernel's per-pair
//     discipline: the relative-slack centroid/rg bound dismisses them
//     in O(1), and the survivors evaluate via linalg.DRMSWithin seeded
//     with the running minimum.
//
// The Taha & Hanbury early break applies as in directedPruned: once the
// row's minimum drops below the running maximum the row is dismissed —
// and, as there, the probe row is visited first (probeRow), so the
// sweep starts with the running maximum already near h(A→B).
// Frame-pair accounting lands in the same three buckets as every other
// method (Evaluated + Pruned + Abandoned = |A|·|B| per directed call);
// node accounting lands in NodesVisited/NodesPruned on top. Empty
// inputs follow directedNaive: 0 when A is empty, +Inf when A is
// non-empty but B is empty.
//
// The arguments after b are the cross-direction coupling of
// distanceIndexed. The running maximum starts at seed instead of 0,
// so the result is max(seed, h(A→B)), exactly as in directedPruned.
// rowUB[i], when non-nil, is a proven upper bound on row i's minimum
// (an exact distance the opposite direction already evaluated),
// letting the row skip without even its warm evaluation when the bound
// cannot raise the max. outUB, when non-nil, collects this direction's
// completed evaluations as column upper bounds (outUB[j] = smallest
// exact d(·, b_j) seen) for the opposite direction to consume. All
// three only skip work that provably cannot raise the maximum above
// seed, so the returned value is max(seed, h(A→B)) whatever they are.
// The visiting order is directedPruned's: the probe row first, on a
// chain of its own but under the same rowUB test and feeding the same
// outUB, then rows 0…na−1 with the probed row stepped over.
func directedIndexed(a, b *traj.Packed, seed float64, c *Counters, rowUB, outUB []float64) float64 {
	na, nb := a.NFrames, b.NFrames
	if na == 0 {
		return seed
	}
	if nb == 0 {
		return math.Inf(1)
	}
	s := indexedScan{a: a, b: b, tree: b.FrameTree(), c: c, rowUB: rowUB, outUB: outUB}
	// The descent frontier is reused from row to row, with whatever
	// capacity earlier rows grew it to.
	frontier := make([]nodeItem, 0, 64)
	probe, col := probeRow(na, nb)
	cmax, _, _, frontier := s.row(frontier, probe, col, math.Inf(1), seed)
	// jstar/dstar chain exactly as in directedPruned: a column index
	// whose distance to the current outer frame is known to be at most
	// dstar, grown by the step dRMS across rows (triangle inequality).
	jstar := 0
	dstar := math.Inf(1)
	for i := 0; i < na; i++ {
		if i > 0 {
			dstar += a.StepDRMS[i]
			dstar += float64(dstar * boundSlack)
		}
		if i == probe {
			continue
		}
		cmax, jstar, dstar, frontier = s.row(frontier, i, jstar, dstar, cmax)
	}
	return cmax
}

// indexedScan is what the rows of one directedIndexed call share and
// none of them changes: the two sides, B's tree, the counters and the
// cross-direction bounds.
type indexedScan struct {
	a, b         *traj.Packed
	tree         *balltree.FrameTree
	c            *Counters
	rowUB, outUB []float64
}

// row is prunedRow for the indexed kernel: it visits row i given the
// chain anchor (jstar, dstar) and the running maximum cmax, and returns
// the running maximum after the row with the anchor the row leaves
// behind. frontier is scratch space for the descent, handed back for
// the next row (passed rather than kept in s so it can stay on the
// caller's stack).
func (s *indexedScan) row(frontier []nodeItem, i, jstar int, dstar, cmax float64) (float64, int, float64, []nodeItem) {
	a, b, tree, c, outUB := s.a, s.b, s.tree, s.c, s.outUB
	nb := b.NFrames
	rowBound := dstar
	if s.rowUB != nil && s.rowUB[i] < rowBound {
		rowBound = s.rowUB[i]
	}
	if rowBound <= cmax {
		// Row skip: the row's minimum is provably ≤ cmax — through
		// the temporal chain (≤ dstar) or an exact distance the
		// opposite direction evaluated (≤ rowUB[i]) — so it cannot
		// raise the max.
		c.prune(int64(nb))
		return cmax, jstar, dstar, frontier
	}
	rowA := a.Row(i)
	ca := a.Centroids[i]
	ra := a.RadGyr[i]
	q := balltree.Point4{ca[0], ca[1], ca[2], ra}
	// Warm start: an evaluation against an infinite bound always
	// completes, so cmin is exact from the first pair on.
	warm := jstar
	d, _ := linalg.DRMSWithin(rowA, b.Row(warm), math.Inf(1))
	c.eval()
	if outUB != nil && d < outUB[warm] {
		outUB[warm] = d
	}
	cmin, argmin := d, warm
	settled := 1
	if cmin >= cmax && settled < nb {
		frontier = frontier[:0]
		frontier = heapPush(frontier, nodeItem{frameNodeBound(q, &tree.Nodes[0]), 0})
		for len(frontier) > 0 {
			var top nodeItem
			top, frontier = heapPop(frontier)
			if top.lb >= cmin {
				// The smallest frontier bound cannot lower the running
				// minimum, so no remaining candidate can: dismiss them
				// all. Unsettled pairs are accounted below.
				nn := remainingNodes(frontier)
				if top.id >= 0 {
					nn++
				}
				c.pruneNodes(nn)
				break
			}
			if top.id < 0 {
				// Pair candidate: its bound is the smallest remaining.
				j := int(^top.id)
				dj, ok := linalg.DRMSWithin(rowA, b.Row(j), cmin)
				settled++
				if !ok {
					c.abandon()
					continue
				}
				c.eval()
				if outUB != nil && dj < outUB[j] {
					outUB[j] = dj
				}
				if dj < cmin {
					cmin, argmin = dj, j
				}
				if cmin < cmax {
					// Taha & Hanbury: the row cannot raise the max.
					c.pruneNodes(remainingNodes(frontier))
					break
				}
				continue
			}
			c.visitNode()
			n := &tree.Nodes[top.id]
			if !n.Leaf() {
				frontier = heapPush(frontier, nodeItem{frameNodeBound(q, &tree.Nodes[n.Left]), n.Left})
				frontier = heapPush(frontier, nodeItem{frameNodeBound(q, &tree.Nodes[n.Right]), n.Right})
				continue
			}
			for _, ix := range tree.Perm[n.Start:n.End] {
				j := int(ix)
				if j == warm {
					continue // settled by the warm start
				}
				dc := ca.Sub(b.Centroids[j])
				dr := ra - b.RadGyr[j]
				lb2 := dc.Norm2() + float64(dr*dr)
				lb2 -= float64(lb2 * (2 * boundSlack))
				if lb2 >= cmin*cmin {
					c.prune(1)
					settled++
					continue
				}
				frontier = heapPush(frontier, nodeItem{math.Sqrt(lb2), ^int32(j)})
			}
		}
	}
	if settled < nb {
		// Pairs dismissed wholesale — by a node bound, the early
		// break, or the warm start undercutting cmax — without being
		// touched individually.
		c.prune(int64(nb - settled))
	}
	if cmin > cmax {
		cmax = cmin
	}
	return cmax, argmin, cmin, frontier
}

// distanceIndexed computes the symmetric Hausdorff distance
// H(A,B) = max(h(A→B), h(B→A)) with the indexed kernel, folding
// frame-pair and tree-node accounting into c (which may be nil). It
// returns exactly the same value as the Naive method; each side's ball
// tree is built (and cached on the Packed) the first time it serves as
// the inner search structure. The two directed passes are coupled
// twice over. Like distancePruned's they share one running maximum: the
// reverse pass starts from h(A→B). And
// every distance the first pass evaluates to completion is an exact
// upper bound on one of the second pass's row minima, so a reverse row
// whose bound does not exceed h(A→B) skips wholesale, before even its
// warm evaluation — a reduction the flat kernels, which keep no column
// minima, cannot express.
func distanceIndexed(a, b *traj.Packed, c *Counters) float64 {
	var colUB []float64
	if b.NFrames > 0 {
		colUB = make([]float64, b.NFrames)
		for j := range colUB {
			colUB[j] = math.Inf(1)
		}
	}
	h1 := directedIndexed(a, b, 0, c, nil, colUB)
	return directedIndexed(b, a, h1, c, colUB, nil)
}
