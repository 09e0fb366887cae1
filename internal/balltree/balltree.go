// Package balltree implements ball-tree metric indexes for the two
// branch-and-bound consumers in this repository:
//
//   - Tree, over 3-D atom positions, mirrors the Scikit-Learn BallTree
//     of the paper's Leaflet Finder Approach 4 ("Tree-Search", §4.3.4):
//     radius queries over membrane coordinates. It is no longer
//     Leaflet's kernel (internal/leaflet finds neighbours with a cell
//     list whose pairs Dist2 decides); it is kept for the calibration in
//     internal/bench and the benchmark's layer C, which time it.
//   - FrameTree, over 4-D frame signatures (centroid + radius of
//     gyration), is the metric index behind PSA's indexed Hausdorff
//     kernel (hausdorff.Indexed): each trajectory window's frames are
//     indexed once (cached on traj.Packed), and every row's min-dRMS
//     search becomes a best-first tree descent instead of an O(frames)
//     scan. See docs/kernels.md for the kernel-method contract it
//     serves.
//
// Construction is O(n log n); queries are O(log n) for the clustered
// point distributions both workloads exhibit, which is what flips the
// crossover against brute-force pairwise computation for large systems.
package balltree

import (
	"math"
	"sort"

	"mdtask/internal/linalg"
)

// DefaultLeafSize is the point count below which nodes become leaves.
const DefaultLeafSize = 32

type node struct {
	center      linalg.Vec3
	radius      float64
	start, end  int32 // index range into the permutation
	left, right int32 // child node ids; -1 for leaves
}

// Tree is an immutable BallTree over a point set. The points slice is
// referenced, not copied; it must not be mutated while the tree is used.
type Tree struct {
	pts      []linalg.Vec3
	perm     []int32
	nodes    []node
	leafSize int
}

// New builds a BallTree with the default leaf size.
func New(pts []linalg.Vec3) *Tree { return newLeafSize(pts, DefaultLeafSize) }

// newLeafSize builds a BallTree whose nodes become leaves below
// leafSize points (≥ 1).
func newLeafSize(pts []linalg.Vec3, leafSize int) *Tree {
	t := &Tree{pts: pts, perm: make([]int32, len(pts)), leafSize: leafSize}
	for i := range t.perm {
		t.perm[i] = int32(i)
	}
	if len(pts) > 0 {
		t.build(0, int32(len(pts)))
	}
	return t
}

// build creates the node covering perm[start:end] and returns its id.
func (t *Tree) build(start, end int32) int32 {
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{start: start, end: end, left: -1, right: -1})

	// Bounding ball: centroid of the range plus max distance.
	var c linalg.Vec3
	for _, ix := range t.perm[start:end] {
		p := t.pts[ix]
		c[0] += p[0]
		c[1] += p[1]
		c[2] += p[2]
	}
	inv := 1 / float64(end-start)
	c = c.Scale(inv)
	var r2 float64
	for _, ix := range t.perm[start:end] {
		if d := linalg.Dist2(c, t.pts[ix]); d > r2 {
			r2 = d
		}
	}
	t.nodes[id].center = c
	t.nodes[id].radius = math.Sqrt(r2)

	if int(end-start) <= t.leafSize {
		return id
	}

	// Split along the dimension of largest spread at the median.
	lo, hi := t.rangeBounds(start, end)
	dim := 0
	if hi[1]-lo[1] > hi[dim]-lo[dim] {
		dim = 1
	}
	if hi[2]-lo[2] > hi[dim]-lo[dim] {
		dim = 2
	}
	mid := (start + end) / 2
	seg := t.perm[start:end]
	sort.Slice(seg, func(i, j int) bool {
		return t.pts[seg[i]][dim] < t.pts[seg[j]][dim]
	})
	left := t.build(start, mid)
	right := t.build(mid, end)
	t.nodes[id].left = left
	t.nodes[id].right = right
	return id
}

func (t *Tree) rangeBounds(start, end int32) (lo, hi linalg.Vec3) {
	lo = t.pts[t.perm[start]]
	hi = lo
	for _, ix := range t.perm[start+1 : end] {
		p := t.pts[ix]
		for k := 0; k < 3; k++ {
			if p[k] < lo[k] {
				lo[k] = p[k]
			}
			if p[k] > hi[k] {
				hi[k] = p[k]
			}
		}
	}
	return lo, hi
}

// QueryRadiusAppend appends the indices of points within radius of q to
// dst (unsorted) and returns the extended slice. It performs no
// allocations beyond growing dst.
func (t *Tree) QueryRadiusAppend(dst []int32, q linalg.Vec3, radius float64) []int32 {
	if len(t.nodes) == 0 {
		return dst
	}
	r2 := radius * radius
	var stack [64]int32
	sp := 0
	stack[sp] = 0
	sp++
	for sp > 0 {
		sp--
		n := &t.nodes[stack[sp]]
		d := linalg.Dist(q, n.center)
		if d > radius+n.radius {
			continue // ball cannot intersect the query sphere
		}
		if n.left == -1 {
			for _, ix := range t.perm[n.start:n.end] {
				if linalg.Dist2(q, t.pts[ix]) <= r2 {
					dst = append(dst, ix)
				}
			}
			continue
		}
		// Entire ball inside the query sphere: take all points.
		if d+n.radius <= radius {
			dst = append(dst, t.perm[n.start:n.end]...)
			continue
		}
		stack[sp] = n.left
		sp++
		stack[sp] = n.right
		sp++
	}
	return dst
}
