package leaflet

import (
	"sync"

	"mdtask/internal/graph"
	"mdtask/internal/linalg"
)

// tileScratch is the working memory of one tile body, pooled because
// the engines run tiles on many goroutines. Only scratch is pooled: the
// components a tile returns cross the shuffle and are freshly allocated.
type tileScratch struct {
	cells cellList
	uf    graph.UnionFind
	size  []int32 // root → its set's size; −(1 + component number) once emitted
}

var tilePool = sync.Pool{New: func() any { return new(tileScratch) }}

// tilePartial is the one tile body of Approaches 3 and 4 — Run's map
// task, the staged engines' unit (ChunkPartial) and SampleDataMovement
// all call it. rows holds atoms b.rows and cols atoms b.cols (ignored on
// a diagonal tile); an off-diagonal tile's rows precede its cols, as in
// every tile of the grid. In one pass it tests the tile's pairs with
// the cell list (tree) or the pairwise scan and unions each edge it
// finds into a dense forest over rows ∪ cols in local ids, row atom r
// as r and column atom c as len(rows)+c; no edge is stored. It then
// walks the local ids in ascending order, which is global order, to
// emit the partial components canonically: only atoms on an edge, each
// component sorted, components ordered by first atom. The components
// are a function of the forest's sets alone, not of the order the
// edges were unioned in. All components share one fresh backing array,
// each capped at its length so an append through one cannot reach the
// next.
func tilePartial(rows, cols []linalg.Vec3, b block, cutoff float64, tree bool) TilePartial {
	s := tilePool.Get().(*tileScratch)
	defer tilePool.Put(s)
	diagonal := b.rows == b.cols
	nodes := len(rows)
	if !diagonal {
		nodes += len(cols)
	}
	s.uf.Reset(nodes)
	var edges int
	if tree {
		edges, _ = s.cells.unionTile(&s.uf, rows, cols, diagonal, cutoff)
	} else {
		edges = pairwiseUnion(&s.uf, rows, cols, diagonal, cutoff)
	}
	tp := TilePartial{Edges: int64(edges)}
	if edges == 0 {
		return tp
	}

	// No edge is a self-loop, so the atoms on an edge are exactly those
	// in a set of two or more.
	s.size = resize(s.size, nodes)
	for v := range nodes {
		s.size[s.uf.Find(int32(v))]++
	}
	comps, touched := 0, 0
	for _, n := range s.size {
		if n > 1 {
			comps++
			touched += int(n)
		}
	}
	tp.Comps = make([]graph.Component, 0, comps)
	backing := make([]int32, touched)
	for v := range nodes {
		r := s.uf.Find(int32(v)) // one step: the loop above compressed every path
		n := s.size[r]
		if n == 1 {
			continue
		}
		if n > 1 { // v is the set's smallest atom: open its component
			s.size[r] = -int32(len(tp.Comps)) - 1
			tp.Comps = append(tp.Comps, backing[:0:n])
			backing = backing[n:]
		}
		id := b.rows.lo + v // local → global
		if v >= len(rows) {
			id = b.cols.lo + v - len(rows)
		}
		k := -s.size[r] - 1
		tp.Comps[k] = append(tp.Comps[k], int32(id))
	}
	return tp
}

// resize returns s with length n and every element zero.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
