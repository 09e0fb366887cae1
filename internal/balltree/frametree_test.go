package balltree

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

func randSigs(r *rand.Rand, n int) []Point4 {
	pts := make([]Point4, n)
	for i := range pts {
		pts[i] = Point4{r.Float64() * 10, r.Float64() * 10, r.Float64() * 10, r.Float64()}
	}
	return pts
}

// TestFrameTreeInvariants checks the structural contract over random
// point sets: the permutation is a permutation, every node's children
// partition its range, and every member signature lies within the
// node's bounding ball.
func TestFrameTreeInvariants(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	for _, n := range []int{0, 1, 2, 7, 8, 9, 33, 100} {
		pts := randSigs(r, n)
		tr := NewFrameTree(pts, 0)
		if len(tr.Pts) != n {
			t.Fatalf("n=%d: len(Pts) = %d", n, len(tr.Pts))
		}
		if n == 0 {
			if len(tr.Nodes) != 0 {
				t.Fatalf("empty tree has %d nodes", len(tr.Nodes))
			}
			continue
		}
		seen := make([]bool, n)
		for _, ix := range tr.Perm {
			if seen[ix] {
				t.Fatalf("n=%d: duplicate index %d in Perm", n, ix)
			}
			seen[ix] = true
		}
		root := tr.Nodes[0]
		if root.Start != 0 || int(root.End) != n {
			t.Fatalf("n=%d: root covers [%d,%d)", n, root.Start, root.End)
		}
		for id, nd := range tr.Nodes {
			if int(nd.End-nd.Start) <= 0 {
				t.Fatalf("n=%d: node %d empty", n, id)
			}
			for _, ix := range tr.Perm[nd.Start:nd.End] {
				if d := nd.Center.Dist(pts[ix]); d > nd.Radius*(1+1e-12)+1e-300 {
					t.Fatalf("n=%d: node %d member %d at %v outside radius %v", n, id, ix, d, nd.Radius)
				}
			}
			if nd.Leaf() {
				if int(nd.End-nd.Start) > DefaultFrameLeafSize {
					t.Fatalf("n=%d: leaf %d holds %d members", n, id, int(nd.End-nd.Start))
				}
				continue
			}
			l, rr := tr.Nodes[nd.Left], tr.Nodes[nd.Right]
			if l.Start != nd.Start || l.End != rr.Start || rr.End != nd.End {
				t.Fatalf("n=%d: node %d children do not partition [%d,%d): left [%d,%d) right [%d,%d)",
					n, id, nd.Start, nd.End, l.Start, l.End, rr.Start, rr.End)
			}
		}
	}
}

// TestFrameTreeDeterministic pins build determinism — the indexed
// kernel's counter trajectories are only reproducible across runs and
// engines if the same signatures always yield the same tree.
func TestFrameTreeDeterministic(t *testing.T) {
	r := rand.New(rand.NewPCG(8, 3))
	pts := randSigs(r, 50)
	// Duplicate coordinates exercise the index tie-break.
	pts[10] = pts[20]
	pts[30] = pts[20]
	a := NewFrameTree(pts, 0)
	b := NewFrameTree(append([]Point4(nil), pts...), 0)
	if !reflect.DeepEqual(a.Perm, b.Perm) || !reflect.DeepEqual(a.Nodes, b.Nodes) {
		t.Fatal("identical inputs produced different trees")
	}
}

// TestFrameTreeLeafSize checks custom and defaulted leaf sizes.
func TestFrameTreeLeafSize(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	pts := randSigs(r, 40)
	one := NewFrameTree(pts, 1)
	for id, nd := range one.Nodes {
		if nd.Leaf() && int(nd.End-nd.Start) != 1 {
			t.Fatalf("leafSize=1: leaf %d holds %d members", id, int(nd.End-nd.Start))
		}
	}
	if big := NewFrameTree(pts, 100); len(big.Nodes) != 1 || !big.Nodes[0].Leaf() {
		t.Fatal("leafSize=100 over 40 points should be a single leaf")
	}
}
