package balltree

import (
	"math"
	"sort"
)

// The frame-space sibling of the 3-D point tree: PSA's indexed
// Hausdorff kernel (hausdorff.Indexed) views every trajectory frame as
// a 4-D signature — centroid x, y, z plus radius of gyration — because
// the exact pruning bound
//
//	dRMS(a, b) ≥ sqrt(|centroid(a)−centroid(b)|² + (rg(a)−rg(b))²)
//
// is precisely the Euclidean distance between the two signatures. A
// ball tree over the signatures therefore aggregates the flat kernel's
// per-pair bound into per-node bounds: for a query signature q and a
// node with center c and radius r, every member frame p satisfies
// dRMS(q, p) ≥ ‖q − sig(p)‖ ≥ ‖q − c‖ − r by the triangle inequality,
// so one comparison can dismiss a whole subtree. The tree structure is
// exported (Nodes, Perm, Pts) so the kernel can run its own best-first
// branch-and-bound descent with its own counter accounting and its own
// floating-point slack discipline.

// DefaultFrameLeafSize is the member count below which FrameTree nodes
// become leaves. Frame signatures guard O(atoms) dRMS evaluations — far
// more expensive than the O(1) node checks — so leaves are kept small
// enough that trees over even short trajectory windows (tens of frames)
// still get a few levels of node-granularity pruning.
const DefaultFrameLeafSize = 8

// Point4 is a frame signature: centroid x, y, z and radius of gyration.
type Point4 [4]float64

// Dist2 returns the squared Euclidean distance between two signatures.
func (p Point4) Dist2(q Point4) float64 {
	dx := p[0] - q[0]
	dy := p[1] - q[1]
	dz := p[2] - q[2]
	dw := p[3] - q[3]
	return float64(dx*dx) + float64(dy*dy) + float64(dz*dz) + float64(dw*dw)
}

// Dist returns the Euclidean distance between two signatures.
func (p Point4) Dist(q Point4) float64 { return math.Sqrt(p.Dist2(q)) }

// FrameNode is one ball of a FrameTree. Leaves have Left == Right == -1
// and cover Perm[Start:End]; internal nodes cover the union of their
// children, which partition the same permutation range.
type FrameNode struct {
	// Center is the arithmetic mean of the member signatures.
	Center Point4
	// Radius is the largest distance from Center to a member signature.
	Radius float64
	// Start and End delimit the node's members in the tree's Perm.
	Start, End int32
	// Left and Right are child node indices, -1 for leaves.
	Left, Right int32
}

// Leaf reports whether the node has no children.
func (n FrameNode) Leaf() bool { return n.Left < 0 }

// FrameTree is an immutable ball tree over frame signatures. The Pts
// slice is referenced, not copied; it must not be mutated while the
// tree is in use. Construction is deterministic: the same signature
// slice always yields the same tree, so counter trajectories derived
// from descents are reproducible across runs and engines.
type FrameTree struct {
	Pts   []Point4
	Perm  []int32
	Nodes []FrameNode
}

// NewFrameTree builds a ball tree over the signatures with the given
// leaf size (values < 1 default to DefaultFrameLeafSize). An empty
// point set yields a tree with no nodes.
func NewFrameTree(pts []Point4, leafSize int) *FrameTree {
	if leafSize < 1 {
		leafSize = DefaultFrameLeafSize
	}
	t := &FrameTree{Pts: pts, Perm: make([]int32, len(pts))}
	for i := range t.Perm {
		t.Perm[i] = int32(i)
	}
	if len(pts) > 0 {
		t.build(0, int32(len(pts)), leafSize)
	}
	return t
}

// build creates the node covering Perm[start:end] and returns its id.
func (t *FrameTree) build(start, end int32, leafSize int) int32 {
	id := int32(len(t.Nodes))
	t.Nodes = append(t.Nodes, FrameNode{Start: start, End: end, Left: -1, Right: -1})

	// Bounding ball: centroid of the range plus max member distance.
	var c Point4
	for _, ix := range t.Perm[start:end] {
		p := t.Pts[ix]
		c[0] += p[0]
		c[1] += p[1]
		c[2] += p[2]
		c[3] += p[3]
	}
	inv := 1 / float64(end-start)
	for k := range c {
		c[k] *= inv
	}
	var r2 float64
	for _, ix := range t.Perm[start:end] {
		if d := c.Dist2(t.Pts[ix]); d > r2 {
			r2 = d
		}
	}
	t.Nodes[id].Center = c
	t.Nodes[id].Radius = math.Sqrt(r2)

	if int(end-start) <= leafSize {
		return id
	}

	// Split along the dimension of largest spread at the median. Ties
	// between equal coordinates are broken by the original frame index
	// to keep construction fully deterministic.
	lo, hi := t.Pts[t.Perm[start]], t.Pts[t.Perm[start]]
	for _, ix := range t.Perm[start+1 : end] {
		p := t.Pts[ix]
		for k := 0; k < 4; k++ {
			if p[k] < lo[k] {
				lo[k] = p[k]
			}
			if p[k] > hi[k] {
				hi[k] = p[k]
			}
		}
	}
	dim := 0
	for k := 1; k < 4; k++ {
		if hi[k]-lo[k] > hi[dim]-lo[dim] {
			dim = k
		}
	}
	mid := (start + end) / 2
	seg := t.Perm[start:end]
	sort.Slice(seg, func(i, j int) bool {
		a, b := t.Pts[seg[i]][dim], t.Pts[seg[j]][dim]
		if a != b {
			return a < b
		}
		return seg[i] < seg[j]
	})
	left := t.build(start, mid, leafSize)
	right := t.build(mid, end, leafSize)
	t.Nodes[id].Left = left
	t.Nodes[id].Right = right
	return id
}
