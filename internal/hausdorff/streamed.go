package hausdorff

import (
	"io"
	"math"

	"mdtask/internal/balltree"
	"mdtask/internal/linalg"
	"mdtask/internal/traj"
)

// The streamed Hausdorff kernel: the symmetric distance computed over
// bounded frame windows instead of fully resident trajectories.
//
// The min–max structure of the Hausdorff distance decomposes over any
// partition of the frame-pair grid: keeping one running minimum per
// frame of each side (rowMin[i] = min over j of dRMS(aᵢ, bⱼ), colMin[j]
// symmetrically) and folding window × window tiles into them in any
// order yields
//
//	H(A,B) = max(maxᵢ rowMin[i], maxⱼ colMin[j])
//
// — the minimum and maximum of a fixed value set are order-independent,
// and every distance entering the set is a completed linalg.DRMSWithin
// evaluation, bit-identical to linalg.DRMS. The streamed result is
// therefore bit-identical to the in-memory kernels for every method.
//
// Memory: the running minima cost O(na+nb) floats; frames cost two
// windows — the outer side holds one window while the inner side is
// re-streamed window by window (the inner trajectory is decoded once
// per outer window, the price of boundedness that BytesStreamed makes
// visible).
//
// Methods map onto exact window-local pruning:
//
//   - Naive evaluates every pair to completion.
//   - EarlyBreak bounds each evaluation by max(rowMin[i], colMin[j]):
//     an evaluation that abandons proves d ≥ both minima, so the pair
//     cannot change either. (The row-cut of the in-memory early break
//     has no window analogue; the bounded evaluation plays its role.)
//   - Pruned additionally dismisses pairs in O(1) with the exact
//     centroid/radius-of-gyration lower bound of DirectedPruned,
//     computed from the windows' packed side data.
//   - Indexed runs two directional best-first descents per tile over
//     the windows' frame-signature ball trees (window-local — built
//     from each window's own Packed, so the ≤2-window residency bound
//     is untouched): rows of the outer window against the inner
//     window's tree pruned by rowMin, then rows of the inner window
//     against the outer window's tree pruned by colMin. Each pass
//     settles every tile pair once, and completed evaluations update
//     both minima opportunistically.
//
// Counter accounting stays on the directed-pair scale of the in-memory
// kernels: one streamed evaluation settles a pair for both directions
// at once, so it accounts 2 directed pairs — and the indexed kernel's
// two one-directional passes account each pair once apiece — keeping
// the invariant Evaluated + Pruned + Abandoned = 2·na·nb per
// trajectory pair for every method.

// StreamStats accumulates the residency and volume accounting of
// streamed evaluations: the peak number of simultaneously materialized
// frames, the windows decoded and their total coordinate bytes
// (re-scans count every time — that is the cost being measured).
type StreamStats struct {
	PeakResidentFrames int64
	BytesStreamed      int64
	WindowsDecoded     int64
}

// observe folds one window-pair residency into the peak.
func (s *StreamStats) observe(frames int64) {
	if s != nil && frames > s.PeakResidentFrames {
		s.PeakResidentFrames = frames
	}
}

// decoded accounts one materialized window.
func (s *StreamStats) decoded(w *traj.Window) {
	if s != nil {
		s.BytesStreamed += w.CoordBytes()
		s.WindowsDecoded++
	}
}

// DistanceStreamed computes the symmetric Hausdorff distance between
// two trajectory refs holding at most one window of each resident
// (window < 1 streams whole trajectories as single windows). The
// result is bit-identical to Distance on the loaded trajectories for
// every method; c and st may be nil.
func DistanceStreamed(a, b *traj.Ref, window int, m Method, c *Counters, st *StreamStats) (float64, error) {
	na, nb := a.NFrames(), b.NFrames()
	if na == 0 && nb == 0 {
		return 0, nil
	}
	if na == 0 || nb == 0 {
		return math.Inf(1), nil
	}
	rowMin := make([]float64, na)
	colMin := make([]float64, nb)
	for i := range rowMin {
		rowMin[i] = math.Inf(1)
	}
	for j := range colMin {
		colMin[j] = math.Inf(1)
	}
	ita := a.Windows(window)
	defer ita.Close()
	for {
		wa, err := ita.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		st.decoded(wa)
		itb := b.Windows(window)
		for {
			wb, err := itb.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				itb.Close()
				return 0, err
			}
			st.decoded(wb)
			st.observe(int64(wa.NFrames()) + int64(wb.NFrames()))
			foldWindowPair(wa, wb, rowMin, colMin, m, c)
		}
		itb.Close()
	}
	var h float64
	for _, v := range rowMin {
		if v > h {
			h = v
		}
	}
	for _, v := range colMin {
		if v > h {
			h = v
		}
	}
	return h, nil
}

// foldWindowPair folds one window × window tile of exact frame
// distances into the running minima.
func foldWindowPair(wa, wb *traj.Window, rowMin, colMin []float64, m Method, c *Counters) {
	if m == Indexed {
		foldIndexedPass(wa, wb, rowMin, colMin, c)
		foldIndexedPass(wb, wa, colMin, rowMin, c)
		return
	}
	pa, pb := wa.Packed, wb.Packed
	for i := 0; i < pa.NFrames; i++ {
		gi := wa.Start + i
		ra := pa.Row(i)
		for j := 0; j < pb.NFrames; j++ {
			gj := wb.Start + j
			// A pair only matters if it can lower one of the two minima,
			// so every bound below is taken against the larger of them.
			t := rowMin[gi]
			if colMin[gj] > t {
				t = colMin[gj]
			}
			switch m {
			case EarlyBreak, Pruned:
				if m == Pruned {
					dc := pa.Centroids[i].Sub(pb.Centroids[j])
					dr := pa.RadGyr[i] - pb.RadGyr[j]
					lb2 := dc.Norm2() + dr*dr
					lb2 -= lb2 * (2 * boundSlack)
					if lb2 >= t*t {
						c.Add(Counters{Pruned: 2})
						continue
					}
				}
				d, ok := linalg.DRMSWithin(ra, pb.Row(j), t)
				if !ok {
					c.Add(Counters{Abandoned: 2})
					continue
				}
				c.Add(Counters{Evaluated: 2})
				if d < rowMin[gi] {
					rowMin[gi] = d
				}
				if d < colMin[gj] {
					colMin[gj] = d
				}
			default: // Naive
				d, _ := linalg.DRMSWithin(ra, pb.Row(j), math.Inf(1))
				c.Add(Counters{Evaluated: 2})
				if d < rowMin[gi] {
					rowMin[gi] = d
				}
				if d < colMin[gj] {
					colMin[gj] = d
				}
			}
		}
	}
}

// foldIndexedPass folds one directional pass of a tile for the indexed
// kernel: every frame of the query window wq runs a best-first descent
// over the target window wt's frame-signature ball tree, pruned by the
// query side's running minimum. Each tile pair is settled exactly once
// per pass (weight 1), so the tile's two passes together preserve the
// 2·na·nb directed-pair invariant; completed evaluations update both
// sides' minima opportunistically.
func foldIndexedPass(wq, wt *traj.Window, qMin, tMin []float64, c *Counters) {
	pq, pt := wq.Packed, wt.Packed
	if pq.NFrames == 0 || pt.NFrames == 0 {
		return
	}
	tree := pt.FrameTree()
	frontier := make([]nodeItem, 0, 64)
	for i := 0; i < pq.NFrames; i++ {
		gi := wq.Start + i
		ra := pq.Row(i)
		cq := pq.Centroids[i]
		rq := pq.RadGyr[i]
		sig := balltree.Point4{cq[0], cq[1], cq[2], rq}
		cmin := qMin[gi]
		settled := 0
		frontier = frontier[:0]
		frontier = heapPush(frontier, nodeItem{frameNodeBound(sig, &tree.Nodes[0]), 0})
		for len(frontier) > 0 {
			var top nodeItem
			top, frontier = heapPop(frontier)
			if top.lb >= cmin {
				// No remaining candidate can lower this side's minimum;
				// the unsettled pairs are accounted wholesale below.
				nn := remainingNodes(frontier)
				if top.id >= 0 {
					nn++
				}
				c.pruneNodes(nn)
				break
			}
			if top.id < 0 {
				j := int(^top.id)
				d, ok := linalg.DRMSWithin(ra, pt.Row(j), cmin)
				settled++
				if !ok {
					c.abandon()
					continue
				}
				c.eval()
				if d < cmin {
					cmin = d
				}
				if gj := wt.Start + j; d < tMin[gj] {
					tMin[gj] = d
				}
				continue
			}
			c.visitNode()
			n := &tree.Nodes[top.id]
			if !n.Leaf() {
				frontier = heapPush(frontier, nodeItem{frameNodeBound(sig, &tree.Nodes[n.Left]), n.Left})
				frontier = heapPush(frontier, nodeItem{frameNodeBound(sig, &tree.Nodes[n.Right]), n.Right})
				continue
			}
			for _, ix := range tree.Perm[n.Start:n.End] {
				j := int(ix)
				dc := cq.Sub(pt.Centroids[j])
				dr := rq - pt.RadGyr[j]
				lb2 := dc.Norm2() + dr*dr
				lb2 -= lb2 * (2 * boundSlack)
				if lb2 >= cmin*cmin {
					c.prune(1)
					settled++
					continue
				}
				frontier = heapPush(frontier, nodeItem{math.Sqrt(lb2), ^int32(j)})
			}
		}
		if settled < pt.NFrames {
			c.prune(int64(pt.NFrames - settled))
		}
		qMin[gi] = cmin
	}
}
