package hausdorff

import (
	"math"
	"testing"

	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// symmetricCases are the trajectory pairs the carried running maximum
// is checked on: the two benchmark regimes and the shapes where the
// reverse pass degenerates.
func symmetricCases() map[string][2]*traj.Trajectory {
	dupA, dupB := fuzzPair(5, 9, 7, 2, 3) // runs of exact duplicates; b revisits a's frames
	return map[string][2]*traj.Trajectory{
		"walk":           {synth.Walk("a", 24, 16, 5, 0), synth.Walk("b", 24, 16, 5, 1)},
		"path":           {synth.PathWalk("a", 24, 16, 5, 0), synth.PathWalk("b", 24, 16, 5, 1)},
		"one frame each": {synth.Walk("a", 7, 1, 6, 0), synth.Walk("b", 7, 1, 6, 1)},
		"one against 12": {synth.Walk("a", 7, 1, 6, 0), synth.Walk("b", 7, 12, 6, 1)},
		"3 against 13":   {synth.PathWalk("a", 9, 3, 7, 0), synth.PathWalk("b", 9, 13, 7, 1)},
		"duplicates":     {dupA, dupB},
		"self":           {dupA, dupA},
		"half empty":     {traj.New("e", 4), synth.Walk("f", 4, 5, 8, 0)},
		"both empty":     {traj.New("e", 4), traj.New("f", 4)},
	}
}

// The full-grid schedule computes H(A,B) and H(B,A) in different blocks
// and the benchmark checks the matrix for symmetry, so with the reverse
// pass seeded by the forward pass the two argument orders must still
// return the same bits — and naive's — with every directed pair
// accounted once.
func TestDistanceSymmetricBitwise(t *testing.T) {
	for name, pair := range symmetricCases() {
		a, b := pair[0], pair[1]
		want := Distance(a, b, Naive)
		if (name == "walk" || name == "path") && want <= 0 {
			t.Errorf("%s: distinct trajectories at distance %v", name, want)
		}
		for _, m := range Methods {
			var cab, cba Counters
			ab := DistanceCounted(a, b, m, &cab)
			ba := DistanceCounted(b, a, m, &cba)
			if math.Float64bits(ab) != math.Float64bits(want) || math.Float64bits(ba) != math.Float64bits(want) {
				t.Errorf("%s/%v: H(a,b) = %x, H(b,a) = %x, naive = %x", name, m, ab, ba, want)
			}
			if pairs := expectedPairs(a.NFrames(), b.NFrames()); cab.Total() != pairs || cba.Total() != pairs {
				t.Errorf("%s/%v: counters %+v and %+v, want %d pairs each", name, m, cab, cba, pairs)
			}
		}
	}
}

// seededKernels runs each seeded directed kernel on one trajectory pair.
func seededKernels(a, b *traj.Trajectory) map[string]func(seed float64, c *Counters) float64 {
	fa, fb := Frames(a), Frames(b)
	pa, pb := a.Packed(), b.Packed()
	return map[string]func(float64, *Counters) float64{
		"early-break": func(seed float64, c *Counters) float64 { return directedEarlyBreak(fa, fb, seed, c) },
		"pruned":      func(seed float64, c *Counters) float64 { return directedPruned(pa, pb, seed, c) },
		"indexed":     func(seed float64, c *Counters) float64 { return directedIndexed(pa, pb, seed, c, nil, nil) },
	}
}

// A seeded directed pass returns max(seed, h(A→B)) and still accounts
// |A|·|B| pairs. Under a seed above every frame distance it returns the
// seed having completed at most one evaluation per row — the first one
// already shows the row is below it; under +Inf the packed kernels skip
// every row through the row bound and touch no atom at all.
func TestSeededDirectedPass(t *testing.T) {
	for name, pair := range symmetricCases() {
		a, b := pair[0], pair[1]
		na, nb := a.NFrames(), b.NFrames()
		if na == 0 || nb == 0 {
			continue
		}
		h := DirectedNaive(Frames(a), Frames(b))
		var dmax float64
		for _, d := range Matrix2DRMS(Frames(a), Frames(b)) {
			dmax = math.Max(dmax, d)
		}
		pairs := int64(na) * int64(nb)
		for kernel, run := range seededKernels(a, b) {
			for _, seed := range []float64{0, h / 2, h, (h + dmax) / 2, 2*dmax + 1, math.Inf(1)} {
				var c Counters
				got := run(seed, &c)
				if want := math.Max(seed, h); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s/%s seed %v: %x, want max(seed, h) = %x", name, kernel, seed, got, want)
				}
				if c.Total() != pairs {
					t.Errorf("%s/%s seed %v: counters %+v sum to %d, want %d", name, kernel, seed, c, c.Total(), pairs)
				}
				if seed > dmax && (c.Abandoned != 0 || c.Evaluated > int64(na)) {
					t.Errorf("%s/%s seed %v above every distance: %+v, want ≤ %d evaluations and the rest pruned",
						name, kernel, seed, c, na)
				}
				if math.IsInf(seed, 1) && kernel != "early-break" && c.Pruned != pairs {
					t.Errorf("%s/%s seed +Inf: %+v, want all %d pairs pruned", name, kernel, c, pairs)
				}
			}
		}
	}
}

// The carry must pay on the benchmark regimes: the symmetric distance
// runs strictly fewer dRMS evaluations, completed or abandoned, than
// its two directed passes run on their own.
func TestCarriedMaximumSavesEvaluations(t *testing.T) {
	cases := symmetricCases()
	for _, name := range []string{"walk", "path"} {
		a, b := cases[name][0], cases[name][1]
		kab, kba := seededKernels(a, b), seededKernels(b, a)
		for _, m := range []Method{EarlyBreak, Pruned, Indexed} {
			var apart, carried Counters
			kab[m.String()](0, &apart)
			kba[m.String()](0, &apart)
			DistanceCounted(a, b, m, &carried)
			if got, was := carried.Evaluated+carried.Abandoned, apart.Evaluated+apart.Abandoned; got >= was {
				t.Errorf("%s/%v: %d dRMS evaluations with the carry, %d without", name, m, got, was)
			}
		}
	}
}
