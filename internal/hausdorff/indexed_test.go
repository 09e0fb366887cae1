package hausdorff

import (
	"math"
	"math/rand/v2"
	"testing"

	"mdtask/internal/balltree"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// checkIndexedPair asserts the indexed kernel's contracts on one
// trajectory pair: bit-identical output to the reference scan,
// self-consistent pair counters (every frame pair in exactly one
// bucket), and non-negative node counters.
func checkIndexedPair(t *testing.T, a, b *traj.Trajectory) {
	t.Helper()
	want := refDistance(a, b)
	var c Counters
	got := DistanceCounted(a, b, Indexed, &c)
	if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("indexed H(%s,%s) = %v, reference = %v (na=%d nb=%d atoms=%d)",
			a.Name, b.Name, got, want, a.NFrames(), b.NFrames(), a.NAtoms)
	}
	if total, want := c.Total(), expectedPairs(a.NFrames(), b.NFrames()); total != want {
		t.Fatalf("counters not self-consistent: evaluated=%d + pruned=%d + abandoned=%d = %d, want %d",
			c.Evaluated, c.Pruned, c.Abandoned, total, want)
	}
	if c.Evaluated < 0 || c.Pruned < 0 || c.Abandoned < 0 || c.NodesVisited < 0 || c.NodesPruned < 0 {
		t.Fatalf("negative counter: %+v", c)
	}
}

// TestIndexedEqualsNaiveRandom is the bit-identicality property test of
// the indexed kernel, mirroring TestPrunedEqualsNaiveRandom: randomized
// synthetic ensembles spanning empty, single-frame, zero-atom and
// asymmetric shapes, across the stay-in-place Walk, diverging PathWalk
// and near-duplicate regimes.
func TestIndexedEqualsNaiveRandom(t *testing.T) {
	r := rand.New(rand.NewPCG(99, 9))
	frameChoices := []int{0, 1, 2, 3, 5, 8, 13, 21}
	atomChoices := []int{0, 1, 2, 7, 24}
	for trial := 0; trial < 120; trial++ {
		seed := r.Uint64()
		atoms := atomChoices[r.IntN(len(atomChoices))]
		fa := frameChoices[r.IntN(len(frameChoices))]
		fb := frameChoices[r.IntN(len(frameChoices))]
		var a, b *traj.Trajectory
		switch trial % 3 {
		case 0:
			a = synth.Walk("a", atoms, fa, seed, 0)
			b = synth.Walk("b", atoms, fb, seed, 1)
		case 1:
			a = synth.PathWalk("a", atoms, fa, seed, 0)
			b = synth.PathWalk("b", atoms, fb, seed, 1)
		default:
			a = synth.Walk("a", atoms, fa, seed, 0)
			b = synth.Walk("b", atoms, fb, seed, 0)
			if fa == fb {
				b = clone(a)
				b.Name = "b"
			}
		}
		checkIndexedPair(t, a, b)
	}
}

// TestIndexedMatchesPrunedCounterClass asserts the indexed kernel does
// its job on the benchmark regimes: it descends the tree (nodes
// visited), dismisses subtrees whole (nodes pruned), and completes no
// more full dRMS evaluations than the flat pruned kernel.
func TestIndexedMatchesPrunedCounterClass(t *testing.T) {
	var nodesPruned int64
	for _, mk := range []func(string, uint64) *traj.Trajectory{
		func(n string, s uint64) *traj.Trajectory { return synth.Walk(n, 32, 24, 9, s) },
		func(n string, s uint64) *traj.Trajectory { return synth.PathWalk(n, 32, 24, 9, s) },
	} {
		a, b := mk("a", 0), mk("b", 1)
		var cp, ci Counters
		DistanceCounted(a, b, Pruned, &cp)
		DistanceCounted(a, b, Indexed, &ci)
		if ci.Evaluated > cp.Evaluated {
			t.Errorf("indexed evaluated %d > pruned %d", ci.Evaluated, cp.Evaluated)
		}
		if ci.NodesVisited == 0 {
			t.Errorf("indexed visited no tree nodes: %+v", ci)
		}
		nodesPruned += ci.NodesPruned
	}
	// Node-granularity pruning fires where signatures separate (the
	// diverging-path regime); the stay-in-place Walk regime prunes at
	// the row level instead, so only the sum is asserted.
	if nodesPruned == 0 {
		t.Error("indexed dismissed no tree nodes whole on either regime")
	}
}

// TestIndexedSelfDistanceZero pins the degenerate identical-trajectory
// case: the warm start finds distance 0 immediately and the whole tree
// frontier is dismissed per row.
func TestIndexedSelfDistanceZero(t *testing.T) {
	tr := synth.Walk("a", 20, 10, 1, 0)
	var c Counters
	if got := DistanceCounted(tr, tr, Indexed, &c); got != 0 {
		t.Fatalf("indexed H(a,a) = %v, want 0", got)
	}
	if c.Total() != expectedPairs(10, 10) {
		t.Fatalf("counters: %+v", c)
	}
}

// TestIndexedEmptyConventions mirrors TestPrunedEmptyConventions.
func TestIndexedEmptyConventions(t *testing.T) {
	empty := traj.New("e", 3)
	full := synth.Walk("f", 3, 4, 5, 0)
	if got := distance(empty, clone(empty), Indexed); got != 0 {
		t.Errorf("H(empty,empty) = %v, want 0", got)
	}
	if got := distance(empty, full, Indexed); !math.IsInf(got, 1) {
		t.Errorf("H(empty,full) = %v, want +Inf", got)
	}
	if got := distance(full, empty, Indexed); !math.IsInf(got, 1) {
		t.Errorf("H(full,empty) = %v, want +Inf", got)
	}
}

// TestNodeBoundNeverTighterThanPairBound is the satellite property
// test: for every tree node and every query frame, the deflated node
// bound frameNodeBound must not exceed the deflated pairwise
// centroid/rg bound of any member frame — tree pruning can only skip
// pairs the flat pruned kernel could also prove skippable. Quick-checked
// over random ensembles in both synthesis regimes.
func TestNodeBoundNeverTighterThanPairBound(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 31))
	for trial := 0; trial < 40; trial++ {
		atoms := 1 + r.IntN(16)
		frames := 1 + r.IntN(40)
		seed := r.Uint64()
		var q, tr *traj.Trajectory
		if trial%2 == 0 {
			q = synth.Walk("q", atoms, frames, seed, 0)
			tr = synth.Walk("t", atoms, frames, seed, 1)
		} else {
			q = synth.PathWalk("q", atoms, frames, seed, 0)
			tr = synth.PathWalk("t", atoms, frames, seed, 1)
		}
		pq, pt := q.Packed(), tr.Packed()
		tree := pt.FrameTree()
		for i := 0; i < pq.NFrames; i++ {
			ca, ra := pq.Centroids[i], pq.RadGyr[i]
			sig := balltree.Point4{ca[0], ca[1], ca[2], ra}
			for ni := range tree.Nodes {
				n := &tree.Nodes[ni]
				lbn := frameNodeBound(sig, n)
				for _, ix := range tree.Perm[n.Start:n.End] {
					j := int(ix)
					dc := ca.Sub(pt.Centroids[j])
					dr := ra - pt.RadGyr[j]
					lb2 := dc.Norm2() + dr*dr
					lb2 -= lb2 * (2 * boundSlack)
					if pair := math.Sqrt(lb2); lbn > pair {
						t.Fatalf("node %d bound %v tighter than member %d pair bound %v (trial %d)",
							ni, lbn, j, pair, trial)
					}
				}
			}
		}
	}
}

// TestIndexedNodeCountersNilSafe ensures the node-counter helpers are
// nil-safe like the pair helpers.
func TestIndexedNodeCountersNilSafe(t *testing.T) {
	var c *Counters
	c.visitNode()
	c.pruneNodes(2)
	a := synth.Walk("a", 4, 6, 2, 0)
	b := synth.Walk("b", 4, 6, 2, 1)
	if got, want := DistanceCounted(a, b, Indexed, nil), distance(a, b, Naive); got != want {
		t.Errorf("nil-counter indexed = %v, want %v", got, want)
	}
}
