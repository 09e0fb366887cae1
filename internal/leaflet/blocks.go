package leaflet

import (
	"fmt"

	"mdtask/internal/engine"
	"mdtask/internal/graph"
	"mdtask/internal/linalg"
)

// BlockSpec addresses one 2-D tile of the pairwise comparison space by
// atom index ranges: rows [RLo,RHi) against columns [CLo,CHi). It is
// the distributable unit of the staged engines — plain integers that
// survive a trip over the wire, unlike the unexported block type Run
// tiles with.
type BlockSpec struct {
	RLo, RHi, CLo, CHi int
}

// Diagonal reports whether the tile compares a chunk against itself.
func (b BlockSpec) Diagonal() bool { return b.RLo == b.CLo && b.RHi == b.CHi }

// Valid checks the spec's ranges against an n-atom system and that it
// is a tile of the upper triangle, as every tile of Blocks is: a chunk
// against itself, or rows that end where or before the columns start.
func (b BlockSpec) Valid(n int) error {
	if b.RLo < 0 || b.RLo > b.RHi || b.RHi > n || b.CLo < 0 || b.CLo > b.CHi || b.CHi > n {
		return fmt.Errorf("leaflet: block %+v out of range for %d atoms", b, n)
	}
	if !b.Diagonal() && b.RHi > b.CLo {
		return fmt.Errorf("leaflet: block %+v is not a tile of the upper triangle", b)
	}
	return nil
}

// Blocks returns the full 2-D grid of Plan2D as addressable specs: the
// upper-triangular chunk-pair tiling, with every unordered atom pair
// covered by exactly one tile.
func Blocks(n, maxTasks int) []BlockSpec { return specsOf(blocks2D(n, maxTasks)) }

// Tiles returns the schedule of Approaches 2-4. Without tree it is the
// tiles of Blocks(len(coords), maxTasks) that can hold an edge (workers
// is unused); with tree, the tree approach's cost plan for workers
// workers, whose chunks group consecutive chunks of that grid. Either
// way the tiles and the ones dropped cover every atom pair exactly
// once, and every edge lies in a kept tile.
func Tiles(coords []linalg.Vec3, cutoff float64, maxTasks, workers int, tree bool) []BlockSpec {
	return specsOf(tilesFor(coords, cutoff, maxTasks, workers, tree))
}

func specsOf(blocks []block) []BlockSpec {
	out := make([]BlockSpec, len(blocks))
	for i, b := range blocks {
		out[i] = BlockSpec{RLo: b.rows.lo, RHi: b.rows.hi, CLo: b.cols.lo, CHi: b.cols.hi}
	}
	return out
}

// BlockPartial computes one tile's partial connected components and its
// discovered edge count over the whole coordinate set — the map side of
// the Parallel-CC architecture (tree selects the cell-list kernel of
// Approach 4, otherwise pairwise distances; both find the same edges).
// It is correct on any tile of Blocks, live or not.
func BlockPartial(coords []linalg.Vec3, b BlockSpec, cutoff float64, tree bool) ([]graph.Component, int64) {
	tp := ChunkPartial(engine.Env{}, coords[b.RLo:b.RHi], coords[b.CLo:b.CHi], b, cutoff, tree)
	return tp.Comps, tp.Edges
}

// TilePartial is one tile's partial result: its partial connected
// components and the number of edges the kernel discovered. It is what
// a Parallel-CC or Tree-Search task body returns to the combine and
// what a staged Leaflet unit ships back, as JSON. Its shuffle payload
// is its component node ids (graph.ComponentBytes), the volume Table 2
// reports, which the combine accounts once.
type TilePartial struct {
	Comps []graph.Component `json:"comps"`
	Edges int64             `json:"edges"`
}

// ChunkPartial is BlockPartial from the tile's own chunks: rows holds
// atoms [b.RLo, b.RHi) and cols atoms [b.CLo, b.CHi) (ignored on a
// diagonal tile). It runs the tile body of Run's Approaches 3 and 4
// (tilePartial), which numbers the two chunks' atoms locally and emits
// global atom ids, instrumented through env as Run's tile bodies are.
// This is the body of the staged engines' Leaflet unit.
func ChunkPartial(env engine.Env, rows, cols []linalg.Vec3, b BlockSpec, cutoff float64, tree bool) TilePartial {
	global := block{rows: span{lo: b.RLo, hi: b.RHi}, cols: span{lo: b.CLo, hi: b.CHi}}
	return tileKernel(env, global, func() TilePartial { return tilePartial(rows, cols, global, cutoff, tree) })
}

// FromPartials joins per-task partial component sets into a full Result
// over n atoms with one union-find pass: components sharing a node
// merge, and every atom gets the canonical label. It is the combine of
// Approaches 3 and 4 on every engine — Run's and the staged engines'.
func FromPartials(n int, partials [][]graph.Component, stats Stats) *Result {
	return finish(graph.MergeComponents(n, partials...), stats)
}
