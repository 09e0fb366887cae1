// Package leaflet implements the Leaflet Finder algorithm (the paper's
// §2.1.2, Algorithm 3): assign lipid atoms to the two leaflets of a
// bilayer by building the graph of atoms closer than a cutoff and
// computing its connected components.
//
// Four architectural approaches are implemented, mirroring Table 2:
//
//	Approach 1 — Broadcast & 1-D partitioning: the whole system is
//	  broadcast; each task computes pairwise distances of a row chunk
//	  against all atoms; edge lists are collected and components
//	  computed on the master.
//	Approach 2 — Task API & 2-D partitioning: tasks receive
//	  pre-partitioned 2-D blocks, compute edges via pairwise distance,
//	  edges are collected and components computed on the master.
//	Approach 3 — Parallel Connected Components: like 2, but each task
//	  also computes the partial connected components of its block so
//	  only components (O(n)) are shuffled instead of edges (O(E)).
//	Approach 4 — Tree-Search: like 3, but edge discovery uses a
//	  spatial index instead of a scan of every pair. The paper's index
//	  is a BallTree; here it is a cell list over each tile's column
//	  chunk (cells.go), whose candidates the pairwise kernels' own
//	  Dist2 test decides, so Approach 4 finds exactly their edges.
//
// The four approaches are written once, in Run, over engine.Executor:
// the approach picks the task body and the combine step, the executor
// (serial, rdd, dask, mpi) owns scheduling and broadcast. The combine
// runs on the master: a union-find over the collected edges
// (Approaches 1-2) or over the collected partial components
// (Approaches 3-4, FromPartials). The staged engines (pilot, fleet) run
// the same tile body over the same planned tiles as staged units instead
// (internal/stage) and join the partials with the same FromPartials.
// Every run is validated against Serial, the untiled reference.
package leaflet

import (
	"fmt"
	"math"

	"mdtask/internal/graph"
	"mdtask/internal/linalg"
)

// Approach selects one of the paper's four architectures (Table 2).
type Approach int

const (
	// Broadcast1D is Approach 1: broadcast & 1-D partitioning.
	Broadcast1D Approach = iota + 1
	// TaskAPI2D is Approach 2: task API & 2-D partitioning.
	TaskAPI2D
	// ParallelCC is Approach 3: parallel connected components.
	ParallelCC
	// TreeSearch is Approach 4: tree-based search & parallel CC.
	TreeSearch
)

// String returns the approach's display name from Table 2.
func (a Approach) String() string {
	switch a {
	case Broadcast1D:
		return "Broadcast & 1-D Partitioning"
	case TaskAPI2D:
		return "Task API & 2-D Partitioning"
	case ParallelCC:
		return "Parallel Connected Components"
	case TreeSearch:
		return "Tree-Search"
	default:
		return fmt.Sprintf("Approach(%d)", int(a))
	}
}

// Approaches lists all four in the paper's order.
var Approaches = []Approach{Broadcast1D, TaskAPI2D, ParallelCC, TreeSearch}

// Stats records the data-movement profile of a run, the quantities
// Table 2 and Figure 8 report.
type Stats struct {
	Tasks          int
	Edges          int64
	BroadcastBytes int64
	ShuffleBytes   int64
}

// Result is the outcome of a Leaflet Finder run.
type Result struct {
	// Labels is the canonical component labeling of every atom.
	Labels []int32
	// Components are the connected components, largest first. For a
	// well-formed bilayer the first two are the leaflets.
	Components []graph.Component
	Stats      Stats
}

// Serial computes the reference result on one goroutine: the tree
// approach's cell list over the whole system as one diagonal block,
// whose half-shell scan unions each edge into one forest as it finds
// it, so it stays usable on paper-sized systems: memory does not grow
// with the edge count. It is the answer every engine's run is checked
// against, not an engine: the jobs layer's serial engine runs Run on
// the serial executor.
func Serial(coords []linalg.Vec3, cutoff float64) *Result {
	s := tilePool.Get().(*tileScratch)
	defer tilePool.Put(s)
	s.cells.bin(coords, 0, cutoff)
	uf := graph.NewUnionFind(len(coords))
	edges, _ := s.cells.unionHalfShell(uf, cutoff*cutoff)
	labels := uf.Labels()
	return &Result{
		Labels:     labels,
		Components: graph.Groups(labels),
		Stats:      Stats{Tasks: 1, Edges: int64(edges)},
	}
}

// finish converts a canonical labeling plus stats into a Result.
func finish(labels []int32, stats Stats) *Result {
	return &Result{Labels: labels, Components: graph.Groups(labels), Stats: stats}
}

// span is a half-open index range of atoms.
type span struct{ lo, hi int }

func (s span) len() int { return s.hi - s.lo }

// of returns the atoms of s.
func (s span) of(coords []linalg.Vec3) []linalg.Vec3 { return coords[s.lo:s.hi] }

// chunks1D splits [0, n) into parts contiguous spans (Approach 1's row
// partitioning).
func chunks1D(n, parts int) []span {
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	// p·n can pass 2³¹ on a 32-bit int (4M atoms in 1024 parts).
	cut := func(p int) int { return int(int64(p) * int64(n) / int64(parts)) }
	out := make([]span, 0, parts)
	for p := 0; p < parts; p++ {
		out = append(out, span{lo: cut(p), hi: cut(p + 1)})
	}
	return out
}

// block is one 2-D tile: rows × cols of the (upper-triangular) pairwise
// comparison space.
type block struct{ rows, cols span }

// chunks2D cuts [0, n) into the gridChunks(n, maxTasks) chunks of the
// 2-D grid.
func chunks2D(n, maxTasks int) []span { return chunks1D(n, gridChunks(n, maxTasks)) }

// gridChunks is the chunk count p of the 2-D grid: the largest p with
// p(p+1)/2 <= maxTasks, at most n and at least 1 (0 for no atoms). The
// search stops at n, and triangleFits forms no product, so any maxTasks
// — up to math.MaxInt, on either int width — returns after at most n
// steps.
func gridChunks(n, maxTasks int) int {
	if n < 1 {
		return 0
	}
	p := 1
	for p < n && triangleFits(p+1, maxTasks) {
		p++
	}
	return p
}

// triangleFits reports whether q(q+1)/2 <= m for q >= 1, halving the
// even factor and comparing by division so nothing overflows.
func triangleFits(q, m int) bool {
	a, b := q, q+1
	if a%2 == 0 {
		a /= 2
	} else {
		b /= 2
	}
	return b <= m/a
}

// blocks2D tiles the upper triangle of the n×n comparison space into at
// most maxTasks blocks: every chunk pair (i <= j) of chunks2D is a tile.
// This is the paper's 2-D pre-partitioning, the full grid; the runs of
// Approaches 2-3 schedule only its live tiles (liveBlocks2D), and
// Approach 4 the live tiles of a grouping of its chunks (treeBlocks).
func blocks2D(n, maxTasks int) []block {
	ch := chunks2D(n, maxTasks)
	out := make([]block, 0, len(ch)*(len(ch)+1)/2)
	for i := range ch {
		for j := i; j < len(ch); j++ {
			out = append(out, block{rows: ch[i], cols: ch[j]})
		}
	}
	return out
}

// liveBlocks2D is the plan of Approaches 2 and 3: the tiles of
// blocks2D(len(coords), maxTasks) that can hold an edge, in grid order.
// A dropped tile never becomes a task or a span.
func liveBlocks2D(coords []linalg.Vec3, cutoff float64, maxTasks int) []block {
	return planTiles(coords, chunks2D(len(coords), maxTasks), cutoff)
}

// planTiles pairs the chunks ch (i <= j) into the tiles that can hold
// an edge, boxing each chunk once — one O(n) pass.
func planTiles(coords []linalg.Vec3, ch []span, cutoff float64) []block {
	return liveTiles(nil, ch, boxesOf(coords, ch), cutoff)
}

// boxesOf boxes each chunk of ch.
func boxesOf(coords []linalg.Vec3, ch []span) []box {
	boxes := make([]box, len(ch))
	for i, c := range ch {
		boxes[i] = boxOf(c.of(coords))
	}
	return boxes
}

// liveTiles appends to out, in grid order, every tile of the chunks ch
// (boxed by boxes) that can hold an edge: each diagonal tile, and each
// off-diagonal pair whose boxes do not lie more than cutoff apart
// (boxesApart).
func liveTiles(out []block, ch []span, boxes []box, cutoff float64) []block {
	for i := range ch {
		for j := i; j < len(ch); j++ {
			if i == j || !boxesApart(boxes[i], boxes[j], cutoff) {
				out = append(out, block{rows: ch[i], cols: ch[j]})
			}
		}
	}
	return out
}

// tasksPerWorker is how many tiles per worker the tree plan keeps, so
// that tiles of uneven cost still leave no worker idle.
const tasksPerWorker = 4

// treeBlocks is the plan of Approach 4, chosen by cost. It boxes the
// chunks2D(len(coords), maxTasks) fine chunks once, then, for each p up
// to min(fine chunks, 4·workers), groups them into p runs of
// consecutive fine chunks (chunks1D over the fine chunks' indices),
// boxes each run as the union of its fine boxes and keeps its live
// tiles. A tile's cost is the atoms its cell-list kernel bins and scans:
// |rows| on a diagonal tile, which bins and scans its one chunk, and
// |rows| + |cols| off it. Among the groupings with at least
// min(4·workers, the fine grid's live tiles) tiles, the cheapest wins,
// a tie going to more tiles. The grouping into the fine chunks
// themselves, reached when they are at most 4·workers, always
// qualifies, and so does p = 4·workers, whose diagonal alone is enough.
// The union of boxes is the box of the run's atoms, so a dropped tile
// holds no edge, exactly as on the fine grid.
//
// The plan is a function of the input, cutoff, maxTasks and workers
// alone: a result's Stats carry its tile count, and the jobs layer
// passes the spec's worker count, never the machine's.
func treeBlocks(coords []linalg.Vec3, cutoff float64, maxTasks, workers int) []block {
	fine := chunks2D(len(coords), maxTasks)
	boxes := boxesOf(coords, fine)
	limit := tasksPerWorker * max(workers, 1)
	want := min(limit, len(liveTiles(nil, fine, boxes, cutoff)))
	var best, tiles []block
	var bestCost int64
	var ch []span
	var bx []box
	for p := 1; p <= min(len(fine), limit); p++ {
		ch, bx = coarsen(ch[:0], bx[:0], fine, boxes, p)
		tiles = liveTiles(tiles[:0], ch, bx, cutoff)
		if len(tiles) < want {
			continue
		}
		if cost := binnedAtoms(tiles); best == nil || cost < bestCost || cost == bestCost && len(tiles) > len(best) {
			best, bestCost = append(best[:0], tiles...), cost
		}
	}
	return best
}

// coarsen appends to ch and bx the p runs of consecutive fine chunks
// (chunks1D over their indices) and their boxes, each the union of its
// fine chunks' boxes.
func coarsen(ch []span, bx []box, fine []span, boxes []box, p int) ([]span, []box) {
	for _, g := range chunks1D(len(fine), p) {
		b := boxes[g.lo]
		for _, o := range boxes[g.lo+1 : g.hi] {
			b = b.union(o)
		}
		ch = append(ch, span{lo: fine[g.lo].lo, hi: fine[g.hi-1].hi})
		bx = append(bx, b)
	}
	return ch, bx
}

// binnedAtoms is the atoms the cell-list kernel bins and scans over
// tiles: |rows| on a diagonal tile, |rows| + |cols| off it.
func binnedAtoms(tiles []block) int64 {
	var n int64
	for _, b := range tiles {
		n += int64(b.rows.len())
		if b.rows != b.cols {
			n += int64(b.cols.len())
		}
	}
	return n
}

// tilesFor is the plan the Parallel-CC approaches run: the cost plan for
// the tree kernel (treeBlocks), the live fine grid for the pairwise one,
// whose tile cost is its pair count, which the finest grid minimises.
func tilesFor(coords []linalg.Vec3, cutoff float64, maxTasks, workers int, tree bool) []block {
	if tree {
		return treeBlocks(coords, cutoff, maxTasks, workers)
	}
	return liveBlocks2D(coords, cutoff, maxTasks)
}

// box is the axis-aligned bounding box of a chunk's atoms.
type box struct{ lo, hi linalg.Vec3 }

// union is the box of both boxes' atoms. Go's min and max return NaN
// when either operand is NaN, so an axis a NaN coordinate left
// unordered in either box stays unordered, and boxesApart never finds
// it apart.
func (b box) union(o box) box {
	for k := range 3 {
		b.lo[k], b.hi[k] = min(b.lo[k], o.lo[k]), max(b.hi[k], o.hi[k])
	}
	return b
}

// boxOf boxes pts. The box of no points is inverted (lo = +Inf,
// hi = −Inf), so boxesApart finds it apart from every box.
func boxOf(pts []linalg.Vec3) box {
	if len(pts) == 0 {
		inf := math.Inf(1)
		return box{lo: linalg.Vec3{inf, inf, inf}, hi: linalg.Vec3{-inf, -inf, -inf}}
	}
	lo, hi := linalg.BoundingBox(pts)
	return box{lo: lo, hi: hi}
}

// boxesApart reports whether no pair of points, one in each box, can be
// an edge. The squared gap is linalg.Dist2 of the boxes' nearest corners
// (equal coordinates on an axis where the boxes overlap), so it runs the
// very subtractions, squares and sums of every pair's Dist2 on operands
// no farther apart; IEEE rounding is monotone, hence the gap is a lower
// bound on each pair's Dist2 and the drop is exact against the kernels'
// Dist2 <= cutoff² test (docs/engines.md, "Tiles that cannot hold an
// edge").
func boxesApart(r, c box, cutoff float64) bool {
	var p, q linalg.Vec3
	for k := range 3 {
		switch {
		case r.hi[k] < c.lo[k]:
			p[k], q[k] = r.hi[k], c.lo[k]
		case c.hi[k] < r.lo[k]:
			p[k], q[k] = r.lo[k], c.hi[k]
		}
	}
	return linalg.Dist2(p, q) > cutoff*cutoff
}

// blockEdgesBrute finds all edges of one block by pairwise distance in
// global atom ids (Approach 2's map task). Every unordered pair of the
// global graph is covered exactly once across the tiling.
func blockEdgesBrute(coords []linalg.Vec3, b block, cutoff float64) []graph.Edge {
	return pairwiseEdges(nil, b.rows.of(coords), b.cols.of(coords), int32(b.rows.lo), int32(b.cols.lo), b.rows == b.cols, cutoff)
}

// pairwiseEdges appends to out every edge of the atoms rows against
// cols by pairwise distance (SciPy-cdist style, Approach 2), row atom r
// as rowBase+r and column atom c as colBase+c. A diagonal tile (cols is
// rows, and ignored) scans r < c; an off-diagonal one the full cross
// product.
func pairwiseEdges(out []graph.Edge, rows, cols []linalg.Vec3, rowBase, colBase int32, diagonal bool, cutoff float64) []graph.Edge {
	c2 := cutoff * cutoff
	if diagonal {
		for i, p := range rows {
			for j := i + 1; j < len(rows); j++ {
				if linalg.Dist2(p, rows[j]) <= c2 {
					out = append(out, graph.Edge{U: rowBase + int32(i), V: rowBase + int32(j)})
				}
			}
		}
		return out
	}
	for i, p := range rows {
		for j, q := range cols {
			if linalg.Dist2(p, q) <= c2 {
				out = append(out, graph.Edge{U: rowBase + int32(i), V: colBase + int32(j)})
			}
		}
	}
	return out
}

// pairwiseUnion is Approach 3's tile kernel: the pairs pairwiseEdges
// tests, each edge unioned into uf as it is found, over the tile's local
// ids (row atom r as r, column atom c as len(rows)+c). It returns the
// edge count.
func pairwiseUnion(uf *graph.UnionFind, rows, cols []linalg.Vec3, diagonal bool, cutoff float64) int {
	c2 := cutoff * cutoff
	edges := 0
	for i, p := range rows {
		others, base := cols, int32(len(rows))
		if diagonal {
			others, base = rows[i+1:], int32(i+1)
		}
		root := uf.Find(int32(i))
		for j, q := range others {
			if linalg.Dist2(p, q) <= c2 {
				root = uf.UnionRoot(root, base+int32(j))
				edges++
			}
		}
	}
	return edges
}

// rowChunkEdges finds edges between a row chunk and all atoms with the
// second index greater than the first (Approach 1's map task over the
// broadcast system): the chunk's own diagonal tile, then its rows
// against the atoms [rows.hi, n).
func rowChunkEdges(coords []linalg.Vec3, rows span, cutoff float64) []graph.Edge {
	own := rows.of(coords)
	out := pairwiseEdges(nil, own, nil, int32(rows.lo), int32(rows.lo), true, cutoff)
	return pairwiseEdges(out, own, coords[rows.hi:], int32(rows.lo), int32(rows.hi), false, cutoff)
}

// CoordBytes is the broadcast payload size of a coordinate set
// (3 × float64 per atom).
func CoordBytes(n int) int64 { return int64(n) * 24 }

// BlockDims describes one 2-D tile of the comparison space for workload
// modeling (experiment harness use).
type BlockDims struct {
	Rows, Cols int
	Diagonal   bool
}

// Plan2D exposes the full 2-D grid Approaches 2-4 plan their tiles
// from, so the experiment harness can model per-task costs without
// running the tasks.
func Plan2D(n, maxTasks int) []BlockDims {
	blocks := blocks2D(n, maxTasks)
	out := make([]BlockDims, len(blocks))
	for i, b := range blocks {
		out[i] = BlockDims{Rows: b.rows.len(), Cols: b.cols.len(), Diagonal: b.rows == b.cols}
	}
	return out
}

// GridTiles counts the tiles of Plan2D(n, maxTasks), p(p+1)/2 for its p
// chunks, without building them. The even factor is halved first:
// p(p+1)/2 <= maxTasks fits an int, but p(p+1) may not.
func GridTiles(n, maxTasks int) int {
	p := gridChunks(n, maxTasks)
	if p%2 == 0 {
		return p / 2 * (p + 1)
	}
	return p * ((p + 1) / 2)
}

// Plan1D exposes Approach 1's row chunking: it returns, per chunk, the
// chunk length and the number of pair comparisons the chunk performs
// (scanning all j > i).
func Plan1D(n, parts int) (lens []int, pairs []int64) {
	for _, s := range chunks1D(n, parts) {
		lens = append(lens, s.len())
		var p int64
		for i := s.lo; i < s.hi; i++ {
			p += int64(n - i - 1)
		}
		pairs = append(pairs, p)
	}
	return lens, pairs
}

// SampleDataMovement runs the map side of Approach 4 (the cell-list
// tile body, edges + partial components per live tile) serially on a
// real system and returns the measured data-movement profile, used by
// the experiment harness to calibrate edges-per-atom and shuffle
// volumes.
func SampleDataMovement(coords []linalg.Vec3, cutoff float64, nTasks int) Stats {
	blocks := liveBlocks2D(coords, cutoff, nTasks)
	st := Stats{Tasks: len(blocks)}
	for _, b := range blocks {
		tp := tilePartial(b.rows.of(coords), b.cols.of(coords), b, cutoff, true)
		st.Edges += tp.Edges
		st.ShuffleBytes += graph.ComponentBytes(tp.Comps)
	}
	return st
}
