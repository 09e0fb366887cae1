package hausdorff

import (
	"fmt"
	"io"
	"math"
	"slices"

	"mdtask/internal/balltree"
	"mdtask/internal/linalg"
	"mdtask/internal/traj"
)

// The streamed Hausdorff kernel: the symmetric distance computed over
// bounded frame windows instead of fully resident trajectories.
//
// The min–max structure of the Hausdorff distance decomposes over any
// partition of the frame-pair grid: keeping one running minimum per
// frame of each side (rowMin[i] over the frames of B met so far,
// colMin[j] symmetrically) and folding tiles of exact distances into
// them in any order yields
//
//	H(A,B) = max(maxᵢ rowMin[i], maxⱼ colMin[j])
//
// once every pair is folded — the minimum and maximum of a fixed value
// set are order-independent, and every distance entering the set is a
// completed linalg.DRMSWithin evaluation, bit-identical to linalg.DRMS.
// The streamed result is therefore bit-identical to the in-memory
// kernels for every method.
//
// The fold (docs/kernels.md, "The streamed fold") carries the early
// break across windows:
//
//   - hlo is the largest completed frame minimum so far — the minimum of
//     a frame that has met every frame of the other side while live. It
//     never exceeds H.
//   - A frame whose running minimum is ≤ hlo is dead: its exact minimum
//     is smaller still, so it cannot be the frame that realises H.
//     Dead is forever (hlo only grows, minima only shrink).
//   - A pair is settled against the larger of its live minima; a
//     dead × dead pair is an O(1) skip, and a tile with no live row and
//     no live column is accounted whole and never decoded.
//   - Probes: before the sweep, the last, first and middle frames of A
//     (at most min(3, window)) are folded against every window of B,
//     read front to back, then B's probes against A. The probes come
//     out complete and seed hlo, usually at or near H, and every frame
//     of the other side leaves with a finite minimum — typically
//     already dead.
//   - The sweep visits A's windows in order, and for each one B's
//     windows starting from the one that held the latest nearest
//     neighbour, so a live row dies in its first tile.
//
// Naive folds no probes and never raises hlo: it stays the exhaustive
// reference. It still makes the two front-to-back passes, which are what
// verifies a plain .mdt file's payload checksum (the sweep reads by
// random access).
//
// Methods map onto exact tile-local pruning against the pair threshold
// t: EarlyBreak bounds each evaluation by t (an evaluation that
// abandons proves d ≥ t, so the pair can lower no live minimum);
// Pruned first dismisses pairs in O(1) with the centroid/radius-of-
// gyration bound of directedPruned; Indexed runs two directional
// best-first descents per tile over tile-local frame-signature ball
// trees — the rows' live frames against the columns' tree, pruned by
// each row's own minimum, then the columns' live frames against the
// rows' tree.
//
// Memory: the running minima cost O(na+nb) floats; frames cost the
// probe frames plus one window during the probe passes, two windows
// during the sweep.
//
// Counter accounting stays on the directed-pair scale of the in-memory
// kernels: one flat evaluation settles a pair for both directions and
// accounts 2, each of the indexed kernel's two passes accounts 1. Every
// pair is folded in exactly one tile — the probe passes flag their
// frames, and later tiles step over them — and a tile accounts
// pruned = 2·|rows|·|cols| − settled, so Evaluated + Pruned + Abandoned
// = 2·na·nb per trajectory pair for every method.

// StreamStats accumulates the residency and volume accounting of
// streamed evaluations: the peak number of simultaneously materialized
// frames, the windows decoded and the coordinate bytes streamed
// (re-scans count every time — that is the cost being measured — and
// so do the probe frames, which are read one by one, not as windows).
type StreamStats struct {
	PeakResidentFrames int64
	BytesStreamed      int64
	WindowsDecoded     int64
}

// observe folds one residency — the probe frames and the window they
// are folded against, or two windows — into the peak.
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

// probed accounts one probe frame read.
func (s *StreamStats) probed(w *traj.Window) {
	if s != nil {
		s.BytesStreamed += w.CoordBytes()
	}
}

// DistanceStreamed computes the symmetric Hausdorff distance between
// two trajectory refs holding at most two windows of frames resident
// (window < 1 streams whole trajectories as single windows). The
// result is bit-identical to DistanceCounted on the loaded trajectories for
// every method; c and st may be nil.
func DistanceStreamed(a, b *traj.Ref, window int, m Method, c *Counters, st *StreamStats) (float64, error) {
	na, nb := a.NFrames(), b.NFrames()
	if na == 0 && nb == 0 {
		return 0, nil
	}
	if na == 0 || nb == 0 {
		return math.Inf(1), nil
	}
	f := &fold{m: m, c: c, st: st, rowMin: make([]float64, na), colMin: make([]float64, nb)}
	for i := range f.rowMin {
		f.rowMin[i] = math.Inf(1)
	}
	for j := range f.colMin {
		f.colMin[j] = math.Inf(1)
	}
	if m == Naive {
		f.hlo = math.Inf(-1) // every running minimum stays live
	}

	// A's probes against B, read front to back; then B's against A,
	// stepping over the probe × probe pairs already folded.
	pa, err := f.probes(a, window)
	if err != nil {
		return 0, err
	}
	if err := f.scan(b, window, pa, nil); err != nil {
		return 0, err
	}
	f.probedA = flags(na, pa.idx)
	for _, i := range pa.idx {
		f.raise(f.rowMin[i])
	}
	pb, err := f.probes(b, window)
	if err != nil {
		return 0, err
	}
	if err := f.scan(a, window, nil, pb); err != nil {
		return 0, err
	}
	f.probedB = flags(nb, pb.idx)
	for _, j := range pb.idx {
		f.raise(f.colMin[j])
	}

	if err := f.sweep(a, b, window); err != nil {
		return 0, err
	}
	// Every frame is complete now: a live one holds its exact minimum,
	// a dead one a value ≤ hlo ≤ H, so the maximum is H.
	var h float64
	for _, v := range f.rowMin {
		h = max(h, v)
	}
	for _, v := range f.colMin {
		h = max(h, v)
	}
	return h, nil
}

// fold is the state of one streamed comparison.
type fold struct {
	m  Method
	c  *Counters
	st *StreamStats

	rowMin, colMin []float64
	// hlo is the largest completed minimum: a running minimum ≤ hlo is
	// dead. Naive keeps it at −∞.
	hlo float64
	// probedA and probedB flag the probe frames: their pairs were all
	// folded by the probe passes, and no later tile folds them again.
	probedA, probedB []bool
	// nn is the column of the latest completed evaluation that lowered
	// a row minimum; the sweep starts each outer window's inner pass
	// from the window holding it.
	nn int

	frontier []nodeItem
}

// raise folds a complete frame's minimum into hlo.
func (f *fold) raise(v float64) {
	if f.m != Naive && v > f.hlo {
		f.hlo = v
	}
}

// live reports whether a running minimum can still realise H.
func (f *fold) live(v float64) bool { return v > f.hlo }

// side is one side of a tile: packed frames of one trajectory and the
// global index of each.
type side struct {
	p     *traj.Packed
	start int   // global index of frame 0 when idx is nil
	idx   []int // global index of each frame (a probe set)
	// folded flags frames (by global index) whose pairs another tile
	// folded; nil when there are none.
	folded []bool
}

func (s *side) global(k int) int {
	if s.idx != nil {
		return s.idx[k]
	}
	return s.start + k
}

func (s *side) owes(k int) bool { return s.folded == nil || !s.folded[s.global(k)] }

func (s *side) owed() int64 {
	var n int64
	for k := 0; k < s.p.NFrames; k++ {
		if s.owes(k) {
			n++
		}
	}
	return n
}

func flags(n int, idx []int) []bool {
	out := make([]bool, n)
	for _, i := range idx {
		out[i] = true
	}
	return out
}

// probes reads the probe frames of r — its last frame (probeRow), first
// and middle, at most min(3, window) of them; none for Naive — into one
// packed side by random access.
func (f *fold) probes(r *traj.Ref, window int) (*side, error) {
	n := r.NFrames()
	limit := min(3, r.WindowReader(window).Size())
	if f.m == Naive {
		limit = 0
	}
	last, _ := probeRow(n, n)
	var idx []int
	for _, k := range []int{last, 0, n / 2} {
		if len(idx) < limit && !slices.Contains(idx, k) {
			idx = append(idx, k)
		}
	}
	w3 := r.NAtoms() * 3
	p := &traj.Packed{
		NAtoms: r.NAtoms(), NFrames: len(idx),
		Coords:    make([]float64, len(idx)*w3),
		Centroids: make([]linalg.Vec3, len(idx)),
		RadGyr:    make([]float64, len(idx)),
	}
	one := r.WindowReader(1)
	defer one.Close()
	for k, i := range idx {
		w, err := one.Window(i)
		if err != nil {
			return nil, err
		}
		f.st.probed(w)
		copy(p.Coords[k*w3:(k+1)*w3], w.Packed.Coords)
		p.Centroids[k], p.RadGyr[k] = w.Packed.Centroids[0], w.Packed.RadGyr[0]
	}
	return &side{p: p, idx: idx}, nil
}

// scan is one probe pass: it reads r front to back — the one sequential
// pass per side, which verifies a plain .mdt file's payload checksum —
// and folds every window against the probe frames of the other side.
// Exactly one of rows and cols is non-nil: the probe side, whose frames
// are A's (rows) or B's (cols); r is the other trajectory. A window of
// A steps over A's probe frames, whose pairs with B's probes the first
// pass folded.
func (f *fold) scan(r *traj.Ref, window int, rows, cols *side) error {
	it := r.Windows(window)
	defer it.Close()
	for {
		w, err := it.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		f.st.decoded(w)
		win := &side{p: w.Packed, start: w.Start}
		if rows != nil {
			f.st.observe(int64(rows.p.NFrames + w.NFrames()))
			f.tile(rows, win)
		} else {
			f.st.observe(int64(w.NFrames() + cols.p.NFrames))
			win.folded = f.probedA
			f.tile(win, cols)
		}
	}
}

// sweep folds every pair the probe passes did not: A's windows in order,
// and for each one B's windows starting from the one holding the latest
// nearest neighbour. A tile with no live frame on either side is
// accounted whole and never decoded; after each outer window its rows
// are complete and raise hlo.
func (f *fold) sweep(a, b *traj.Ref, window int) error {
	ra, rb := a.WindowReader(window), b.WindowReader(window)
	defer ra.Close()
	defer rb.Close()
	sa, sb := ra.Size(), rb.Size()
	na, nb := a.NFrames(), b.NFrames()
	nwb := rb.NumWindows()
	for k := 0; k < ra.NumWindows(); k++ {
		i0, i1 := k*sa, min((k+1)*sa, na)
		var wa *traj.Window
		first := f.nn / sb
		for s := 0; s < nwb; s++ {
			l := (first + s) % nwb
			j0, j1 := l*sb, min((l+1)*sb, nb)
			rowsOwed, rowsLive := f.liveOwed(f.rowMin, f.probedA, i0, i1)
			colsOwed, colsLive := f.liveOwed(f.colMin, f.probedB, j0, j1)
			if rowsOwed == 0 || colsOwed == 0 || (!rowsLive && !colsLive) {
				f.c.prune(2 * rowsOwed * colsOwed)
				continue
			}
			if wa == nil {
				w, err := ra.Window(k)
				if err != nil {
					return err
				}
				f.st.decoded(w)
				wa = w
			}
			wb, err := rb.Window(l)
			if err != nil {
				return err
			}
			f.st.decoded(wb)
			f.st.observe(int64(wa.NFrames() + wb.NFrames()))
			f.tile(&side{p: wa.Packed, start: wa.Start, folded: f.probedA},
				&side{p: wb.Packed, start: wb.Start, folded: f.probedB})
		}
		for i := i0; i < i1; i++ {
			f.raise(f.rowMin[i])
		}
	}
	return nil
}

// liveOwed counts the frames of [lo, hi) not yet folded against the
// whole other side and reports whether any of them is live.
func (f *fold) liveOwed(mins []float64, folded []bool, lo, hi int) (owed int64, live bool) {
	for i := lo; i < hi; i++ {
		if !folded[i] {
			owed++
			live = live || f.live(mins[i])
		}
	}
	return owed, live
}

// tile folds every owed pair of rows × cols into the running minima and
// accounts them: whatever the tile does not evaluate or abandon it
// dismisses in O(1), so pruned = 2·|rows|·|cols| − settled.
func (f *fold) tile(rows, cols *side) {
	var tc Counters
	if f.m == Indexed {
		f.indexedPass(rows, cols, f.rowMin, f.colMin, true, &tc)
		f.indexedPass(cols, rows, f.colMin, f.rowMin, false, &tc)
	} else {
		f.flat(rows, cols, &tc)
	}
	tc.Pruned = 2*rows.owed()*cols.owed() - tc.Evaluated - tc.Abandoned
	if tc.Pruned < 0 {
		panic(fmt.Sprintf("hausdorff: streamed tile settled %d pairs of %d", tc.Evaluated+tc.Abandoned, tc.Evaluated+tc.Abandoned+tc.Pruned))
	}
	f.c.Add(tc)
}

// flat folds a tile pair by pair for the naive, early-break and pruned
// kernels. Each pair is settled against t, the larger of its live
// minima (+Inf for naive): a completed evaluation enters both minima,
// a bound or an abandon proves d ≥ t, so the pair can lower no live
// minimum.
func (f *fold) flat(rows, cols *side, c *Counters) {
	pr, pc := rows.p, cols.p
	for k := 0; k < pr.NFrames; k++ {
		if !rows.owes(k) {
			continue
		}
		i := rows.global(k)
		ra := pr.Row(k)
		for l := 0; l < pc.NFrames; l++ {
			if !cols.owes(l) {
				continue
			}
			j := cols.global(l)
			rmin, cmin := f.rowMin[i], f.colMin[j]
			t := math.Inf(1)
			if f.m != Naive {
				switch rl, cl := f.live(rmin), f.live(cmin); {
				case rl && cl:
					t = max(rmin, cmin)
				case rl:
					t = rmin
				case cl:
					t = cmin
				default:
					continue // dead × dead
				}
			}
			if f.m == Pruned {
				dc := pr.Centroids[k].Sub(pc.Centroids[l])
				dr := pr.RadGyr[k] - pc.RadGyr[l]
				lb2 := dc.Norm2() + float64(dr*dr)
				lb2 -= float64(lb2 * (2 * boundSlack))
				if lb2 >= t*t {
					continue
				}
			}
			d, ok := linalg.DRMSWithin(ra, pc.Row(l), t)
			if !ok {
				c.Abandoned += 2
				continue
			}
			c.Evaluated += 2
			if d < rmin {
				f.rowMin[i], f.nn = d, j
			}
			if d < cmin {
				f.colMin[j] = d
			}
		}
	}
}

// indexedPass is one directional pass of the indexed kernel over a
// tile: every owed, live frame of q runs a best-first descent over t's
// frame-signature ball tree, pruned by its own running minimum. It
// settles each of its pairs once (weight 1), so a tile's two passes
// account 2 per pair; completed evaluations lower both minima. rows
// marks the pass whose queries are A's frames, which tracks the nearest
// neighbour for the sweep.
func (f *fold) indexedPass(q, t *side, qMin, tMin []float64, rows bool, c *Counters) {
	pq, pt := q.p, t.p
	var tree *balltree.FrameTree
	for k := 0; k < pq.NFrames; k++ {
		if !q.owes(k) {
			continue
		}
		gi := q.global(k)
		cmin := qMin[gi]
		if !f.live(cmin) {
			continue
		}
		if tree == nil {
			if pt.NFrames == 0 {
				return
			}
			tree = pt.FrameTree()
		}
		ra := pq.Row(k)
		cq := pq.Centroids[k]
		rq := pq.RadGyr[k]
		sig := balltree.Point4{cq[0], cq[1], cq[2], rq}
		frontier := heapPush(f.frontier[:0], nodeItem{frameNodeBound(sig, &tree.Nodes[0]), 0})
		for len(frontier) > 0 {
			var top nodeItem
			top, frontier = heapPop(frontier)
			if top.lb >= cmin {
				// No remaining candidate can lower this minimum; the
				// unsettled pairs land in the tile's pruned count.
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
				if !ok {
					c.abandon()
					continue
				}
				c.eval()
				gj := t.global(j)
				if d < cmin {
					cmin = d
					if rows {
						f.nn = gj
					}
				}
				if d < tMin[gj] {
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
				if !t.owes(j) {
					continue
				}
				dc := cq.Sub(pt.Centroids[j])
				dr := rq - pt.RadGyr[j]
				lb2 := dc.Norm2() + float64(dr*dr)
				lb2 -= float64(lb2 * (2 * boundSlack))
				if lb2 >= cmin*cmin {
					continue
				}
				frontier = heapPush(frontier, nodeItem{math.Sqrt(lb2), ^int32(j)})
			}
		}
		f.frontier = frontier
		qMin[gi] = cmin
	}
}
