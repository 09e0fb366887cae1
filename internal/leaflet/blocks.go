package leaflet

import (
	"fmt"

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

// Valid checks the spec's ranges against an n-atom system.
func (b BlockSpec) Valid(n int) error {
	if b.RLo < 0 || b.RLo > b.RHi || b.RHi > n || b.CLo < 0 || b.CLo > b.CHi || b.CHi > n {
		return fmt.Errorf("leaflet: block %+v out of range for %d atoms", b, n)
	}
	return nil
}

// Blocks returns the full 2-D grid of Plan2D as addressable specs: the
// upper-triangular chunk-pair tiling, with every unordered atom pair
// covered by exactly one tile.
func Blocks(n, maxTasks int) []BlockSpec { return specsOf(blocks2D(n, maxTasks)) }

// LiveBlocks returns the tiles of Blocks(len(coords), maxTasks) that
// can hold an edge — the schedule Approaches 2-4 run. Every edge lies in
// a live tile.
func LiveBlocks(coords []linalg.Vec3, cutoff float64, maxTasks int) []BlockSpec {
	return specsOf(liveBlocks2D(coords, cutoff, maxTasks))
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
// It is correct on any tile, live or not.
func BlockPartial(coords []linalg.Vec3, b BlockSpec, cutoff float64, tree bool) ([]graph.Component, int64) {
	tp := ChunkPartial(coords[b.RLo:b.RHi], coords[b.CLo:b.CHi], b, cutoff, tree)
	return tp.Comps, tp.Edges
}

// ChunkPartial is BlockPartial from the tile's own chunks: rows holds
// atoms [b.RLo, b.RHi) and cols atoms [b.CLo, b.CHi) (ignored on a
// diagonal tile). It runs the kernel of Run's tile bodies on the chunks
// joined, then shifts every edge back to global atom ids. This is the
// body of the staged engines' Leaflet unit.
func ChunkPartial(rows, cols []linalg.Vec3, b BlockSpec, cutoff float64, tree bool) TilePartial {
	pts, local := rows, block{rows: span{hi: len(rows)}, cols: span{hi: len(rows)}}
	shift := int32(b.RLo)
	if !b.Diagonal() {
		pts = append(rows[:len(rows):len(rows)], cols...)
		local.cols = span{lo: len(rows), hi: len(pts)}
		shift = int32(b.CLo - len(rows))
	}
	edges := blockEdges(pts, local, cutoff, tree)
	for k := range edges {
		edges[k].U += int32(b.RLo)
		edges[k].V += shift
	}
	return TilePartial{Comps: graph.PartialComponents(edges), Edges: int64(len(edges))}
}

// FromPartials joins per-unit partial component sets into a full Result
// over n atoms with one union-find pass: components sharing a node
// merge, exactly as Run's reduce merges them, and every atom gets the
// canonical label.
func FromPartials(n int, partials [][]graph.Component, stats Stats) *Result {
	return finish(graph.MergeComponents(n, partials...), stats)
}
