// Package graph provides the graph algorithms behind the Leaflet Finder:
// edge/adjacency representations, connected components (BFS and
// union–find variants), and the partial-component merge that implements
// the paper's "Parallel Connected Components" reduce (§4.3.3, Table 2).
package graph

import (
	"fmt"
	"slices"
	"sort"
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

// Len returns the number of elements in the forest.
func (uf *UnionFind) Len() int { return len(uf.parent) }

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
	switch {
	case uf.rank[rx] < uf.rank[ry]:
		uf.parent[rx] = ry
	case uf.rank[rx] > uf.rank[ry]:
		uf.parent[ry] = rx
	default:
		uf.parent[ry] = rx
		uf.rank[rx]++
	}
	return true
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

// PartialComponents computes the connected components induced by a
// partial edge list (the map-side computation of the paper's Approach 3):
// only nodes that appear in at least one edge are included, so isolated
// nodes of the full graph do not leak into shuffle payloads. The result
// is canonical: every component sorted, components ordered by first node.
func PartialComponents(edges []Edge) []Component {
	if len(edges) == 0 {
		return nil
	}
	nodes, idOf := touchedNodes(edges)
	uf := NewUnionFind(len(nodes))
	for _, e := range edges {
		uf.Union(idOf(e.U), idOf(e.V))
	}
	// Group in node order: a component is numbered when its smallest node
	// is met and filled in ascending order, so the output is canonical
	// without sorting. All components share one backing array, each
	// capped at its size so an append can never spill into a neighbour.
	comp := make([]int32, len(nodes)) // root → 1 + component number
	var sizes []int
	for i := range nodes {
		r := uf.Find(int32(i))
		if comp[r] == 0 {
			sizes = append(sizes, 0)
			comp[r] = int32(len(sizes))
		}
		sizes[comp[r]-1]++
	}
	backing := make([]int32, len(nodes))
	out := make([]Component, len(sizes))
	pos := 0
	for k, size := range sizes {
		out[k] = backing[pos : pos : pos+size]
		pos += size
	}
	for i, v := range nodes {
		k := comp[uf.Find(int32(i))] - 1
		out[k] = append(out[k], v)
	}
	return out
}

// touchedNodes returns the sorted distinct endpoints of a non-empty edge
// list and a function giving an endpoint's position among them. When
// the endpoints span a range at most denseSpan times the edge count (as
// the edges of a diagonal or neighbouring Leaflet tile do), a table over
// that range numbers them in one pass; otherwise the endpoints are
// sorted and compacted and positions are binary searches.
func touchedNodes(edges []Edge) (nodes []int32, idOf func(int32) int32) {
	lo, hi := edges[0].U, edges[0].U
	for _, e := range edges {
		lo, hi = min(lo, e.U, e.V), max(hi, e.U, e.V)
	}
	if span := int64(hi) - int64(lo) + 1; span <= denseSpan*int64(len(edges)) {
		table := make([]int32, span)
		for _, e := range edges {
			table[e.U-lo], table[e.V-lo] = 1, 1
		}
		for i, seen := range table {
			if seen != 0 {
				table[i] = int32(len(nodes))
				nodes = append(nodes, lo+int32(i))
			}
		}
		return nodes, func(v int32) int32 { return table[v-lo] }
	}
	nodes = make([]int32, 0, 2*len(edges))
	for _, e := range edges {
		nodes = append(nodes, e.U, e.V)
	}
	slices.Sort(nodes)
	nodes = slices.Compact(nodes)
	return nodes, func(v int32) int32 {
		i, _ := slices.BinarySearch(nodes, v)
		return int32(i)
	}
}

// denseSpan bounds touchedNodes' table at a few int32s per edge.
const denseSpan = 4

// MergeComponents joins partial components that share at least one node
// (the paper's Approach-3 reduce). n is the total node count of the full
// graph; nodes not present in any partial component remain singletons
// and receive their own label. The result is the canonical labeling.
func MergeComponents(n int, partials ...[]Component) []int32 {
	uf := NewUnionFind(n)
	for _, ps := range partials {
		for _, c := range ps {
			for i := 1; i < len(c); i++ {
				uf.Union(c[0], c[i])
			}
		}
	}
	return uf.Labels()
}

// Groups converts a canonical labeling into sorted components, largest
// first (ties broken by smallest member).
func Groups(labels []int32) []Component {
	byLabel := make(map[int32]Component)
	for i, l := range labels {
		byLabel[l] = append(byLabel[l], int32(i))
	}
	out := make([]Component, 0, len(byLabel))
	for _, c := range byLabel {
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i][0] < out[j][0]
	})
	return out
}

// EqualLabels reports whether two labelings partition nodes identically.
// Both must be canonical labelings (as produced by the functions in this
// package) of the same node count.
func EqualLabels(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
// [0, n) is canonical, the form PartialComponents produces and the
// Leaflet reduce requires: every component non-empty and strictly
// increasing, no node in two components, components ordered by first
// node.
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
