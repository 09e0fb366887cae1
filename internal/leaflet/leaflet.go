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
//	  BallTree nearest-neighbor query instead of pairwise distances.
//
// The four approaches are written once, in Run, over engine.Executor:
// the approach picks the task body and the combine step, the executor
// (serial, rdd, dask, mpi) owns scheduling, reduction and broadcast.
// Approach 2 additionally runs on the pilot engine (RunPilot, the
// paper's Figure 9), whose units exchange staged files rather than
// closures. Every run is validated against Serial, the untiled
// reference.
package leaflet

import (
	"fmt"

	"mdtask/internal/balltree"
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

// TreeCrossoverAtoms is the system size above which tree-based edge
// discovery beats pairwise distances in the paper's evaluation (faster
// from 524k atoms up, slower at 262k and below, §4.3.4).
const TreeCrossoverAtoms = 400_000

// Recommended returns the architectural approach the paper's findings
// select for a system size: parallel connected components with pairwise
// distances below the crossover, tree search above it.
func Recommended(nAtoms int) Approach {
	if nAtoms >= TreeCrossoverAtoms {
		return TreeSearch
	}
	return ParallelCC
}

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

// Serial computes the reference result on one goroutine, using a
// BallTree for edge discovery so it stays usable on paper-sized systems.
// A WithCancel option is polled every few thousand atoms; a cancelled
// run returns its partial result, which the caller must discard.
func Serial(coords []linalg.Vec3, cutoff float64, opts ...Option) *Result {
	o := gatherOpts(opts)
	n := len(coords)
	tree := balltree.New(coords)
	uf := graph.NewUnionFind(n)
	var edges int64
	var buf []int32
	for i := 0; i < n; i++ {
		if i%4096 == 0 && o.cancelled() {
			break
		}
		buf = tree.QueryRadiusAppend(buf[:0], coords[i], cutoff)
		for _, j := range buf {
			if j > int32(i) {
				uf.Union(int32(i), j)
				edges++
			}
		}
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

// blocks2D tiles the upper triangle of the n×n comparison space into at
// most maxTasks blocks: the atom range is cut into p chunks with
// p(p+1)/2 <= maxTasks, and every chunk pair (i <= j) becomes a task.
// This is the paper's 2-D pre-partitioning (Approaches 2-4).
func blocks2D(n, maxTasks int) []block {
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
	ch := chunks1D(n, p)
	var out []block
	for i := 0; i < len(ch); i++ {
		for j := i; j < len(ch); j++ {
			out = append(out, block{rows: ch[i], cols: ch[j]})
		}
	}
	return out
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

// blockEdgesTree finds the same edges as blockEdgesBrute using a
// BallTree over the column chunk queried by each row atom (Approach 4).
func blockEdgesTree(coords []linalg.Vec3, b block, cutoff float64) []graph.Edge {
	tree := balltree.New(coords[b.cols.lo:b.cols.hi])
	var out []graph.Edge
	var buf []int32
	for i := b.rows.lo; i < b.rows.hi; i++ {
		buf = tree.QueryRadiusAppend(buf[:0], coords[i], cutoff)
		for _, local := range buf {
			j := int32(b.cols.lo) + local
			if b.rows == b.cols {
				if j <= int32(i) {
					continue
				}
			}
			out = append(out, graph.Edge{U: int32(i), V: j})
		}
	}
	return out
}

// blockEdges finds one tile's edges with the approach's kernel (tree
// selects the BallTree); it is the entry point of every tile body. A
// tile whose row and column atoms are boxed more than cutoff apart
// (tileApart) holds no edge: it reports apart and returns no edges
// without building a tree or computing a distance.
func blockEdges(coords []linalg.Vec3, b block, cutoff float64, tree bool) (edges []graph.Edge, apart bool) {
	if tileApart(coords, b, cutoff) {
		return nil, true
	}
	if tree {
		return blockEdgesTree(coords, b, cutoff), false
	}
	return blockEdgesBrute(coords, b, cutoff), false
}

// tileApart reports whether no pair of the tile can be an edge because
// the axis-aligned boxes of its row and column atoms lie more than
// cutoff apart. The squared gap is linalg.Dist2 of the boxes' nearest
// corners (equal coordinates on an axis where the boxes overlap), so it
// runs the very subtractions, squares and sums of every pair's Dist2 on
// operands no farther apart; IEEE rounding is monotone, hence the gap
// is a lower bound on each pair's Dist2 and the skip is exact against
// the kernels' Dist2 <= cutoff² test (docs/engines.md, "Tiles that
// cannot hold an edge"). A tile with an empty span has no pairs; a
// diagonal tile's boxes coincide.
func tileApart(coords []linalg.Vec3, b block, cutoff float64) bool {
	if b.rows.len() == 0 || b.cols.len() == 0 {
		return true
	}
	if b.rows == b.cols {
		return false
	}
	rlo, rhi := linalg.BoundingBox(coords[b.rows.lo:b.rows.hi])
	clo, chi := linalg.BoundingBox(coords[b.cols.lo:b.cols.hi])
	var p, q linalg.Vec3
	for k := range 3 {
		switch {
		case rhi[k] < clo[k]:
			p[k], q[k] = rhi[k], clo[k]
		case chi[k] < rlo[k]:
			p[k], q[k] = rlo[k], chi[k]
		}
	}
	return linalg.Dist2(p, q) > cutoff*cutoff
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

// Plan2D exposes the 2-D tiling used by Approaches 2-4 so the experiment
// harness can model per-task costs without running the tasks.
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
// discovery + partial components per block) serially on a real system
// and returns the measured data-movement profile, used by the
// experiment harness to calibrate edges-per-atom and shuffle volumes.
func SampleDataMovement(coords []linalg.Vec3, cutoff float64, nTasks int) Stats {
	blocks := blocks2D(len(coords), nTasks)
	var st Stats
	st.Tasks = len(blocks)
	for _, b := range blocks {
		edges, _ := blockEdges(coords, b, cutoff, true)
		comps := graph.PartialComponents(edges)
		st.Edges += int64(len(edges))
		st.ShuffleBytes += graph.ComponentBytes(comps)
	}
	return st
}
