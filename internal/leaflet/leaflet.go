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
// (serial, rdd, dask, mpi) owns scheduling, reduction and broadcast.
// The staged engines (pilot, fleet) run BlockPartial over the live
// tiles as staged units instead (internal/stage) and join the partials
// with FromPartials. Every run is validated against Serial, the untiled
// reference.
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
// approach's cell-list kernel over the whole system as one diagonal
// block, so it stays usable on paper-sized systems. A WithCancel option
// is polled every few thousand atoms; a cancelled run returns its
// partial result, which the caller must discard.
func Serial(coords []linalg.Vec3, cutoff float64, opts ...Option) *Result {
	o := gatherOpts(opts)
	n := len(coords)
	cl := cellPool.Get().(*cellList)
	defer cellPool.Put(cl)
	cl.bin(coords, span{hi: n}, cutoff)
	uf := graph.NewUnionFind(n)
	var edges int64
	var buf []graph.Edge
	const rowsPerPoll = 4096
	for lo := 0; lo < n; lo += rowsPerPoll {
		if o.cancelled() {
			break
		}
		buf, _ = cl.appendEdges(buf[:0], coords, span{lo: lo, hi: min(lo+rowsPerPoll, n)}, cutoff, true)
		for _, e := range buf {
			uf.Union(e.U, e.V)
		}
		edges += int64(len(buf))
	}
	labels := uf.Labels()
	return &Result{
		Labels:     labels,
		Components: graph.Groups(labels),
		Stats:      Stats{Tasks: 1, Edges: edges},
	}
}

// Equal reports whether two results partition the atoms identically.
func Equal(a, b *Result) bool { return graph.EqualLabels(a.Labels, b.Labels) }

// finish converts a canonical labeling plus stats into a Result.
func finish(labels []int32, stats Stats) *Result {
	return &Result{Labels: labels, Components: graph.Groups(labels), Stats: stats}
}

// span is a half-open index range of atoms.
type span struct{ lo, hi int }

func (s span) len() int { return s.hi - s.lo }

// chunks1D splits [0, n) into parts contiguous spans (Approach 1's row
// partitioning).
func chunks1D(n, parts int) []span {
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([]span, 0, parts)
	for p := 0; p < parts; p++ {
		out = append(out, span{lo: p * n / parts, hi: (p + 1) * n / parts})
	}
	return out
}

// block is one 2-D tile: rows × cols of the (upper-triangular) pairwise
// comparison space.
type block struct{ rows, cols span }

// chunks2D cuts [0, n) into the p chunks of the 2-D grid, the largest p
// with p(p+1)/2 <= maxTasks (and at most n).
func chunks2D(n, maxTasks int) []span {
	p := 1
	for (p+1)*(p+2)/2 <= maxTasks {
		p++
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return chunks1D(n, p)
}

// blocks2D tiles the upper triangle of the n×n comparison space into at
// most maxTasks blocks: every chunk pair (i <= j) of chunks2D is a tile.
// This is the paper's 2-D pre-partitioning, the full grid; the runs of
// Approaches 2-4 schedule only its live tiles (liveBlocks2D).
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

// liveBlocks2D is the plan of Approaches 2-4: the tiles of
// blocks2D(len(coords), maxTasks) that can hold an edge, in grid order.
// A dropped tile never becomes a task, a span or a cache entry.
func liveBlocks2D(coords []linalg.Vec3, cutoff float64, maxTasks int) []block {
	return planTiles(coords, chunks2D(len(coords), maxTasks), cutoff)
}

// planTiles pairs the chunks ch (i <= j) into tiles, boxing each chunk
// once — one O(n) pass — and dropping every off-diagonal pair whose
// boxes lie more than cutoff apart (boxesApart). Diagonal tiles are
// always kept.
func planTiles(coords []linalg.Vec3, ch []span, cutoff float64) []block {
	boxes := make([]box, len(ch))
	for i, c := range ch {
		boxes[i] = boxOf(coords[c.lo:c.hi])
	}
	var out []block
	for i := range ch {
		for j := i; j < len(ch); j++ {
			if i == j || !boxesApart(boxes[i], boxes[j], cutoff) {
				out = append(out, block{rows: ch[i], cols: ch[j]})
			}
		}
	}
	return out
}

// box is the axis-aligned bounding box of a chunk's atoms.
type box struct{ lo, hi linalg.Vec3 }

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

// blockEdgesBrute finds all edges of one block by pairwise distance
// (SciPy-cdist style, Approaches 2 and 3). Diagonal blocks scan i<j;
// off-diagonal blocks scan the full cross product. Every unordered pair
// of the global graph is covered exactly once across the tiling.
func blockEdgesBrute(coords []linalg.Vec3, b block, cutoff float64) []graph.Edge {
	c2 := cutoff * cutoff
	var out []graph.Edge
	if b.rows == b.cols {
		for i := b.rows.lo; i < b.rows.hi; i++ {
			p := coords[i]
			for j := i + 1; j < b.rows.hi; j++ {
				if linalg.Dist2(p, coords[j]) <= c2 {
					out = append(out, graph.Edge{U: int32(i), V: int32(j)})
				}
			}
		}
		return out
	}
	for i := b.rows.lo; i < b.rows.hi; i++ {
		p := coords[i]
		for j := b.cols.lo; j < b.cols.hi; j++ {
			if linalg.Dist2(p, coords[j]) <= c2 {
				out = append(out, graph.Edge{U: int32(i), V: int32(j)})
			}
		}
	}
	return out
}

// blockEdgesTree finds exactly blockEdgesBrute's edges with a cell list
// over the column chunk scanned by each row atom (Approach 4), and
// returns them with the number of Dist2 tests it made.
func blockEdgesTree(coords []linalg.Vec3, b block, cutoff float64) ([]graph.Edge, int) {
	cl := cellPool.Get().(*cellList)
	defer cellPool.Put(cl)
	cl.bin(coords, b.cols, cutoff)
	return cl.appendEdges(nil, coords, b.rows, cutoff, b.rows == b.cols)
}

// blockEdges finds one tile's edges with the approach's kernel (tree
// selects the cell list, otherwise the pairwise scan; both find the
// same edges); it is the entry point of every tile body and is correct
// on any tile, live or not.
func blockEdges(coords []linalg.Vec3, b block, cutoff float64, tree bool) []graph.Edge {
	if tree {
		edges, _ := blockEdgesTree(coords, b, cutoff)
		return edges
	}
	return blockEdgesBrute(coords, b, cutoff)
}

// rowChunkEdges finds edges between a row chunk and all atoms with the
// second index greater than the first (Approach 1's map task over the
// broadcast system).
func rowChunkEdges(coords []linalg.Vec3, rows span, cutoff float64) []graph.Edge {
	c2 := cutoff * cutoff
	var out []graph.Edge
	for i := rows.lo; i < rows.hi; i++ {
		p := coords[i]
		for j := i + 1; j < len(coords); j++ {
			if linalg.Dist2(p, coords[j]) <= c2 {
				out = append(out, graph.Edge{U: int32(i), V: int32(j)})
			}
		}
	}
	return out
}

// labelsFromComponents expands merged components into a full canonical
// labeling of n atoms (untouched atoms stay singletons).
func labelsFromComponents(n int, comps []graph.Component) []int32 {
	uf := graph.NewUnionFind(n)
	for _, c := range comps {
		for i := 1; i < len(c); i++ {
			uf.Union(c[0], c[i])
		}
	}
	return uf.Labels()
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

// Plan2D exposes the full 2-D grid Approaches 2-4 plan their live tiles
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

// SampleDataMovement runs the map side of Approach 3 (tree-based edge
// discovery + partial components per live tile) serially on a real
// system and returns the measured data-movement profile, used by the
// experiment harness to calibrate edges-per-atom and shuffle volumes.
func SampleDataMovement(coords []linalg.Vec3, cutoff float64, nTasks int) Stats {
	blocks := liveBlocks2D(coords, cutoff, nTasks)
	var st Stats
	st.Tasks = len(blocks)
	for _, b := range blocks {
		edges := blockEdges(coords, b, cutoff, true)
		comps := graph.PartialComponents(edges)
		st.Edges += int64(len(edges))
		st.ShuffleBytes += graph.ComponentBytes(comps)
	}
	return st
}
