package leaflet

import (
	"sync"

	"mdtask/internal/graph"
)

// merge joins two partial-component sets, combining components that
// share a node (the associative reduce of Approaches 3 and 4). Both
// sides must be canonical — non-empty sorted components, disjoint,
// ordered by first node, as tilePartial and this method produce — and
// so is the result.
//
// The cost is linear in |a|+|b|: nodes are marked with their component
// in s's dense scratch, a node met twice unites two components, and
// each output component is its inputs' sorted merge. A component that
// touches no other is passed through shared, not copied (components are
// never modified once built); one joined from k > 2 inputs pays a k-way
// merge's log k per node.
func (s *mergeScratch) merge(a, b []graph.Component) []graph.Component {
	switch {
	case len(a) == 0 && len(b) == 0:
		return nil
	case len(a) == 0:
		return b
	case len(b) == 0:
		return a
	}

	// Component ids: a's in order, then b's.
	k := len(a) + len(b)
	comp := func(id int) graph.Component {
		if id < len(a) {
			return a[id]
		}
		return b[id-len(a)]
	}
	maxNode := int32(-1)
	for id := range k {
		c := comp(id)
		maxNode = max(maxNode, c[len(c)-1])
	}
	if int(maxNode) >= len(s.mark) {
		s.mark = make([]int32, maxNode+1)
	}
	// mark[v] is 1 + the id of the first component holding node v; a
	// node met again unites its two components. Only the entries set
	// here are cleared again, so the scratch costs nothing per node id.
	s.uf.Reset(k)
	for id := range k {
		for _, v := range comp(id) {
			if m := s.mark[v]; m == 0 {
				s.mark[v] = int32(id) + 1
			} else {
				s.uf.Union(m-1, int32(id))
			}
		}
	}
	for id := range k {
		for _, v := range comp(id) {
			s.mark[v] = 0
		}
	}

	// Group the component ids by root (a counting sort): the members of
	// root r are members[start[r]:end[r]].
	s.start = resize(s.start, k+1)
	for id := range k {
		s.start[s.uf.Find(int32(id))+1]++
	}
	for r := range k {
		s.start[r+1] += s.start[r]
	}
	s.end = append(s.end[:0], s.start[:k]...)
	s.members = resize(s.members, k)
	for id := range k {
		r := s.uf.Find(int32(id))
		s.members[s.end[r]] = int32(id)
		s.end[r]++
	}
	joined := 0 // nodes, duplicates included, of the components that merge
	for id := range k {
		if r := s.uf.Find(int32(id)); s.end[r]-s.start[r] > 1 {
			joined += len(comp(id))
		}
	}

	// Emit in order of first node: walking a and b merged by first node
	// meets each output component first at its smallest node.
	out := make([]graph.Component, 0, k)
	backing := make([]int32, 0, joined)
	for i, j := 0, 0; i < len(a) || j < len(b); {
		var id int
		if j == len(b) || (i < len(a) && a[i][0] <= b[j][0]) {
			id, i = i, i+1
		} else {
			id, j = len(a)+j, j+1
		}
		r := s.uf.Find(int32(id))
		ms := s.members[s.start[r]:s.end[r]]
		if len(ms) == 0 {
			continue // emitted at an earlier member
		}
		s.end[r] = s.start[r]
		if len(ms) == 1 {
			out = append(out, comp(id))
			continue
		}
		lists := s.lists[:0]
		for _, m := range ms {
			lists = append(lists, comp(int(m)))
		}
		lo := len(backing)
		backing = mergeSorted(backing, lists)
		out = append(out, backing[lo:len(backing):len(backing)])
		clear(lists)
		s.lists = lists[:0]
	}
	return out
}

// mergeScratch is the working memory of one merge at a time.
type mergeScratch struct {
	mark    []int32 // node → 1 + component id; all zero between calls
	uf      graph.UnionFind
	start   []int32
	end     []int32
	members []int32
	lists   [][]int32
}

// mergeScratchList hands merge scratch to a reduce's concurrent merges.
// Run keeps one for the whole run, so each scratch's marks are sized to
// the system's n atoms once and, unlike a sync.Pool's, survive a GC.
type mergeScratchList struct {
	mu   sync.Mutex
	n    int
	free []*mergeScratch
}

// merge is mergeScratch.merge on a scratch no other merge holds.
func (l *mergeScratchList) merge(a, b []graph.Component) []graph.Component {
	l.mu.Lock()
	var s *mergeScratch
	if k := len(l.free); k > 0 {
		s, l.free = l.free[k-1], l.free[:k-1]
	} else {
		s = &mergeScratch{mark: make([]int32, l.n)}
	}
	l.mu.Unlock()
	out := s.merge(a, b)
	l.mu.Lock()
	l.free = append(l.free, s)
	l.mu.Unlock()
	return out
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

// mergeSorted appends the sorted union of strictly ascending lists to
// dst, keeping one copy of a node several lists hold. It reuses lists
// as its heap.
func mergeSorted(dst []int32, lists [][]int32) []int32 {
	if len(lists) == 2 {
		x, y := lists[0], lists[1]
		for len(x) > 0 && len(y) > 0 {
			switch {
			case x[0] < y[0]:
				dst, x = append(dst, x[0]), x[1:]
			case y[0] < x[0]:
				dst, y = append(dst, y[0]), y[1:]
			default:
				dst, x, y = append(dst, x[0]), x[1:], y[1:]
			}
		}
		return append(append(dst, x...), y...)
	}
	h := lists // a min-heap on each list's head
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	base := len(dst)
	for len(h) > 0 {
		if v := h[0][0]; len(dst) == base || dst[len(dst)-1] != v {
			dst = append(dst, v)
		}
		if h[0] = h[0][1:]; len(h[0]) == 0 {
			last := len(h) - 1
			h[0] = h[last]
			h = h[:last]
		}
		siftDown(h, 0)
	}
	return dst
}

func siftDown(h [][]int32, i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(h) && h[l][0] < h[m][0] {
			m = l
		}
		if r := 2*i + 2; r < len(h) && h[r][0] < h[m][0] {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
