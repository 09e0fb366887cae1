// Package graph provides the graph algorithms behind the Leaflet Finder:
// edge/adjacency representations, connected components (BFS and
// union–find variants), and the partial-component merge that implements
// the paper's "Parallel Connected Components" reduce (§4.3.3, Table 2).
package graph

import (
	"fmt"
	"slices"
)

// Edge is an undirected edge between node indices U and V.
type Edge struct{ U, V int32 }

// Adjacency builds an adjacency list for n nodes from an edge list.
// Self loops are kept (harmless for components); duplicate edges are
// preserved as parallel entries.
func Adjacency(n int, edges []Edge) [][]int32 {
	deg := make([]int32, n)
	for _, e := range edges {
		deg[e.U]++
		if e.U != e.V {
			deg[e.V]++
		}
	}
	adj := make([][]int32, n)
	for i, d := range deg {
		adj[i] = make([]int32, 0, d)
	}
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e.V)
		if e.U != e.V {
			adj[e.V] = append(adj[e.V], e.U)
		}
	}
	return adj
}

// ComponentsBFS labels each of n nodes with the smallest node index of
// its connected component using breadth-first search: the canonical
// labeling used by all component implementations in this repository.
func ComponentsBFS(n int, edges []Edge) []int32 {
	adj := Adjacency(n, edges)
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int32
	for start := 0; start < n; start++ {
		if labels[start] != -1 {
			continue
		}
		root := int32(start)
		labels[start] = root
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if labels[v] == -1 {
					labels[v] = root
					queue = append(queue, v)
				}
			}
		}
	}
	return labels
}

// UnionFind is a disjoint-set forest with union by rank and path
// compression.
type UnionFind struct {
	parent []int32
	rank   []uint8
}

// NewUnionFind creates a forest of n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{}
	uf.Reset(n)
	return uf
}

// Reset turns the forest into n singleton sets, reusing its memory when
// it has room (pooled scratch reuses one forest across calls).
func (uf *UnionFind) Reset(n int) {
	uf.parent = slices.Grow(uf.parent[:0], n)[:n]
	uf.rank = slices.Grow(uf.rank[:0], n)[:n]
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	clear(uf.rank)
}

// Find returns the representative of x's set, compressing the path.
func (uf *UnionFind) Find(x int32) int32 {
	root := x
	for uf.parent[root] != root {
		root = uf.parent[root]
	}
	for uf.parent[x] != root {
		uf.parent[x], x = root, uf.parent[x]
	}
	return root
}

// Union merges the sets containing x and y and reports whether they were
// previously distinct.
func (uf *UnionFind) Union(x, y int32) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	uf.link(rx, ry)
	return true
}

// UnionRoot merges y's set into the set whose representative is root
// and returns the merged set's representative. root must be a current
// representative (a Find result with no union since), so a caller
// linking many nodes to one set finds that set once and pays one Find
// per node: root = uf.UnionRoot(root, y) for each y.
func (uf *UnionFind) UnionRoot(root, y int32) int32 {
	if ry := uf.Find(y); ry != root {
		return uf.link(root, ry)
	}
	return root
}

// link joins the sets of two distinct representatives by rank and
// returns the joined set's representative: the higher-ranked one, or
// rx on a tie, whose rank grows.
func (uf *UnionFind) link(rx, ry int32) int32 {
	switch {
	case uf.rank[rx] < uf.rank[ry]:
		uf.parent[rx] = ry
		return ry
	case uf.rank[rx] > uf.rank[ry]:
		uf.parent[ry] = rx
	default:
		uf.parent[ry] = rx
		uf.rank[rx]++
	}
	return rx
}

// Labels returns the canonical labeling: each node is labeled with the
// smallest node index in its set.
func (uf *UnionFind) Labels() []int32 {
	n := len(uf.parent)
	minOf := make([]int32, n)
	for i := range minOf {
		minOf[i] = -1
	}
	for i := 0; i < n; i++ {
		r := uf.Find(int32(i))
		if minOf[r] == -1 || int32(i) < minOf[r] {
			minOf[r] = int32(i)
		}
	}
	labels := make([]int32, n)
	for i := 0; i < n; i++ {
		labels[i] = minOf[uf.Find(int32(i))]
	}
	return labels
}

// ComponentsUnionFind labels components of n nodes via union–find,
// producing the same canonical labeling as ComponentsBFS.
func ComponentsUnionFind(n int, edges []Edge) []int32 {
	uf := NewUnionFind(n)
	for _, e := range edges {
		uf.Union(e.U, e.V)
	}
	return uf.Labels()
}

// Component is a sorted set of node indices belonging to one connected
// component.
type Component []int32

// MergeComponents joins partial components that share at least one node
// (the paper's Approaches 3-4 reduce, in one union-find pass). n is the
// total node count of the full graph; nodes not present in any partial
// component remain singletons and receive their own label. The result
// is the canonical labeling.
func MergeComponents(n int, partials ...[]Component) []int32 {
	uf := NewUnionFind(n)
	for _, ps := range partials {
		for _, c := range ps {
			if len(c) < 2 {
				continue
			}
			root := uf.Find(c[0]) // once per component, then one Find per member
			for _, v := range c[1:] {
				root = uf.UnionRoot(root, v)
			}
		}
	}
	return uf.Labels()
}

// Groups converts a canonical labeling into sorted components, largest
// first (ties broken by smallest member). The labeling must be
// canonical, as CheckLabels accepts: every label lies in [0, n) and is
// the smallest node of its component, so a component's label is also
// its first member.
//
// It runs in O(n) with no map and no sort: one pass counts each
// component's size, a counting sort over sizes gives each component
// its output slot (roots visited in ascending order, so equal sizes
// keep smallest-member order), and a walk of the nodes in ascending
// order opens each component at its first member and appends the rest,
// so every component comes out sorted. All components share one
// backing array, each capped at its length.
func Groups(labels []int32) []Component {
	n := len(labels)
	size := make([]int32, n) // root → its component's size; −(1 + slot) once opened
	maxSize := int32(0)
	for _, l := range labels {
		size[l]++
		maxSize = max(maxSize, size[l])
	}
	// next[s] is the next free slot for a component of size s: sizes
	// descending, each size's components in root order.
	next := make([]int32, maxSize+1)
	comps := 0
	for v, l := range labels {
		if int(l) == v {
			next[size[v]]++
			comps++
		}
	}
	slot := int32(0)
	for s := maxSize; s > 0; s-- {
		slot, next[s] = slot+next[s], slot
	}
	out := make([]Component, comps)
	backing := make([]int32, n)
	for v, l := range labels {
		if int(l) == v { // v is its component's first member: open it
			s := size[v]
			k := next[s]
			next[s]++
			out[k] = backing[:0:s]
			backing = backing[s:]
			size[v] = -k - 1
		}
		k := -size[l] - 1
		out[k] = append(out[k], int32(v))
	}
	return out
}

// ComponentBytes returns the shuffle payload size of a set of partial
// components, at 4 bytes per node id, used by the experiment harness to
// report Table 2's shuffle volumes.
func ComponentBytes(cs []Component) int64 {
	var n int64
	for _, c := range cs {
		n += int64(len(c)) * 4
	}
	return n
}

// CheckComponents validates that a partial-component set over nodes
// [0, n) is canonical, the form a Leaflet tile body produces and the
// staged engines require of a shipped partial: every component
// non-empty and strictly increasing, no node in two components,
// components ordered by first node.
func CheckComponents(n int, cs []Component) error {
	seen := make([]bool, n)
	for i, c := range cs {
		if len(c) == 0 {
			return fmt.Errorf("graph: component %d is empty", i)
		}
		if i > 0 && c[0] <= cs[i-1][0] {
			return fmt.Errorf("graph: component %d starts at node %d, not after %d", i, c[0], cs[i-1][0])
		}
		for k, v := range c {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("graph: component %d holds node %d outside [0,%d)", i, v, n)
			}
			if k > 0 && v <= c[k-1] {
				return fmt.Errorf("graph: component %d is not strictly increasing at node %d", i, v)
			}
			if seen[v] {
				return fmt.Errorf("graph: node %d is in two components", v)
			}
			seen[v] = true
		}
	}
	return nil
}

// EdgeBytes returns the shuffle payload size of an edge list at 8 bytes
// per edge (two int32 ids).
func EdgeBytes(nEdges int) int64 { return int64(nEdges) * 8 }

// CheckLabels validates that a labeling is canonical: every label is the
// smallest node index of its component.
func CheckLabels(labels []int32) error {
	for i, l := range labels {
		if l < 0 || int(l) >= len(labels) {
			return fmt.Errorf("graph: node %d has out-of-range label %d", i, l)
		}
		if labels[l] != l {
			return fmt.Errorf("graph: node %d labeled %d, but %d is labeled %d (not canonical)",
				i, l, l, labels[l])
		}
		if l > int32(i) {
			return fmt.Errorf("graph: node %d labeled %d > itself (not canonical)", i, l)
		}
	}
	return nil
}
