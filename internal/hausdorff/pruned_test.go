package hausdorff

import (
	"math"
	"math/rand/v2"
	"testing"

	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// expectedPairs is the frame-pair total a symmetric-distance call must
// account: both directed scans do real work only when both sides are
// non-empty (an empty side short-circuits to 0 or +Inf).
func expectedPairs(na, nb int) int64 {
	if na == 0 || nb == 0 {
		return 0
	}
	return 2 * int64(na) * int64(nb)
}

// checkPrunedPair asserts the pruned kernel's two contracts on one
// trajectory pair: bit-identical output to the reference scan, and
// self-consistent counters (every frame pair lands in exactly one
// bucket).
func checkPrunedPair(t *testing.T, a, b *traj.Trajectory) {
	t.Helper()
	want := refDistance(a, b)
	var c Counters
	got := DistanceCounted(a, b, Pruned, &c)
	if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("pruned H(%s,%s) = %v, reference = %v (na=%d nb=%d atoms=%d)",
			a.Name, b.Name, got, want, a.NFrames(), b.NFrames(), a.NAtoms)
	}
	if total, want := c.Total(), expectedPairs(a.NFrames(), b.NFrames()); total != want {
		t.Fatalf("counters not self-consistent: evaluated=%d + pruned=%d + abandoned=%d = %d, want %d",
			c.Evaluated, c.Pruned, c.Abandoned, total, want)
	}
	if c.Evaluated < 0 || c.Pruned < 0 || c.Abandoned < 0 {
		t.Fatalf("negative counter: %+v", c)
	}
}

// TestPrunedEqualsNaiveRandom is the property test of the pruned
// kernel: on randomized synthetic ensembles spanning empty,
// single-frame, zero-atom and asymmetric shapes — and both the
// stay-in-place Walk and the diverging PathWalk regimes — the pruned
// result must equal the naive result bit for bit, with counters
// accounting every frame pair exactly once.
func TestPrunedEqualsNaiveRandom(t *testing.T) {
	r := rand.New(rand.NewPCG(77, 7))
	frameChoices := []int{0, 1, 2, 3, 5, 8, 13}
	atomChoices := []int{0, 1, 2, 7, 24}
	for trial := 0; trial < 120; trial++ {
		seed := r.Uint64()
		atoms := atomChoices[r.IntN(len(atomChoices))]
		fa := frameChoices[r.IntN(len(frameChoices))]
		fb := frameChoices[r.IntN(len(frameChoices))]
		var a, b *traj.Trajectory
		switch trial % 3 {
		case 0: // independent random-walk configurations (far apart)
			a = synth.Walk("a", atoms, fa, seed, 0)
			b = synth.Walk("b", atoms, fb, seed, 1)
		case 1: // diverging paths from a shared start (pruning regime)
			a = synth.PathWalk("a", atoms, fa, seed, 0)
			b = synth.PathWalk("b", atoms, fb, seed, 1)
		default: // near-duplicate trajectories (tiny distances, ties)
			a = synth.Walk("a", atoms, fa, seed, 0)
			b = synth.Walk("b", atoms, fb, seed, 0)
			if fa == fb {
				b = clone(a)
				b.Name = "b"
			}
		}
		checkPrunedPair(t, a, b)
	}
}

// TestPrunedSelfDistanceZero pins the degenerate identical-trajectory
// case: every row's first evaluation finds distance 0 and the remaining
// pairs are pruned.
func TestPrunedSelfDistanceZero(t *testing.T) {
	tr := synth.Walk("a", 20, 10, 1, 0)
	var c Counters
	if got := DistanceCounted(tr, tr, Pruned, &c); got != 0 {
		t.Fatalf("pruned H(a,a) = %v, want 0", got)
	}
	if c.Total() != expectedPairs(10, 10) {
		t.Fatalf("counters: %+v", c)
	}
}

// TestPrunedEmptyConventions mirrors TestEmptyInputConsistency for the
// packed path: 0 for empty-both, +Inf for half-empty.
func TestPrunedEmptyConventions(t *testing.T) {
	empty := traj.Alloc("e", 3, 0)
	full := synth.Walk("f", 3, 4, 5, 0)
	if got := distance(empty, clone(empty), Pruned); got != 0 {
		t.Errorf("H(empty,empty) = %v, want 0", got)
	}
	if got := distance(empty, full, Pruned); !math.IsInf(got, 1) {
		t.Errorf("H(empty,full) = %v, want +Inf", got)
	}
	if got := distance(full, empty, Pruned); !math.IsInf(got, 1) {
		t.Errorf("H(full,empty) = %v, want +Inf", got)
	}
}

// TestPrunedPrunesOnPaths asserts the kernel actually prunes in its
// target regime: on a diverging-path pair the full-evaluation count
// must be well below the naive pair total.
func TestPrunedPrunesOnPaths(t *testing.T) {
	a := synth.PathWalk("a", 32, 24, 9, 0)
	b := synth.PathWalk("b", 32, 24, 9, 1)
	var c Counters
	checkPrunedPair(t, a, b)
	DistanceCounted(a, b, Pruned, &c)
	if total := expectedPairs(24, 24); c.Evaluated*2 > total {
		t.Errorf("pruned kernel evaluated %d of %d pairs fully on a diverging-path pair", c.Evaluated, total)
	}
}

// TestCounterMethodsNilSafe ensures nil-counter accounting is a no-op
// everywhere.
func TestCounterMethodsNilSafe(t *testing.T) {
	var c *Counters
	c.eval()
	c.prune(3)
	c.abandon()
	c.Add(Counters{Evaluated: 1})
	a := synth.Walk("a", 4, 3, 2, 0)
	b := synth.Walk("b", 4, 3, 2, 1)
	if got, want := DistanceCounted(a, b, Pruned, nil), distance(a, b, Naive); got != want {
		t.Errorf("nil-counter pruned = %v, want %v", got, want)
	}
}

// TestNaiveAndEarlyBreakCounters pins the accounting of the two
// baseline kernels, which the benchmark comparisons rely on: naive
// evaluates every pair; early-break's buckets still sum to the total.
func TestNaiveAndEarlyBreakCounters(t *testing.T) {
	a := synth.Walk("a", 6, 7, 3, 0)
	b := synth.Walk("b", 6, 5, 3, 1)
	var cn Counters
	DistanceCounted(a, b, Naive, &cn)
	if cn.Evaluated != expectedPairs(7, 5) || cn.Pruned != 0 || cn.Abandoned != 0 {
		t.Errorf("naive counters: %+v", cn)
	}
	var ce Counters
	DistanceCounted(a, b, EarlyBreak, &ce)
	if ce.Total() != expectedPairs(7, 5) || ce.Abandoned != 0 {
		t.Errorf("early-break counters: %+v", ce)
	}
	if ce.Evaluated > cn.Evaluated {
		t.Errorf("early-break evaluated %d > naive %d", ce.Evaluated, cn.Evaluated)
	}
}
