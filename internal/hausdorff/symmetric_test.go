package hausdorff

import (
	"fmt"
	"math"
	"testing"

	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// symmetricCases are the trajectory pairs the carried running maximum
// and the probe-first row order are checked on: the two benchmark
// regimes, the shapes where the reverse pass degenerates, and
// trajectories whose farthest frame — the row that realises h(A→B) —
// sits first, in the middle, or last, where the probe row is; with two
// and three frames those positions and the probe coincide.
func symmetricCases() map[string][2]*traj.Trajectory {
	dupA, dupB := fuzzPair(5, 9, 7, 2, 3) // runs of exact duplicates; b revisits a's frames
	cases := map[string][2]*traj.Trajectory{
		"walk":           {synth.Walk("a", 24, 16, 5, 0), synth.Walk("b", 24, 16, 5, 1)},
		"path":           {synth.PathWalk("a", 24, 16, 5, 0), synth.PathWalk("b", 24, 16, 5, 1)},
		"one frame each": {synth.Walk("a", 7, 1, 6, 0), synth.Walk("b", 7, 1, 6, 1)},
		"one against 12": {synth.Walk("a", 7, 1, 6, 0), synth.Walk("b", 7, 12, 6, 1)},
		"2 against 11":   {synth.Walk("a", 7, 2, 6, 0), synth.Walk("b", 7, 11, 6, 1)},
		"3 against 13":   {synth.PathWalk("a", 9, 3, 7, 0), synth.PathWalk("b", 9, 13, 7, 1)},
		"duplicates":     {dupA, dupB},
		"self":           {dupA, dupA},
		"half empty":     {traj.New("e", 4), synth.Walk("f", 4, 5, 8, 0)},
		"both empty":     {traj.New("e", 4), traj.New("f", 4)},
	}
	for _, na := range []int{2, 3, 12} {
		for _, pos := range []int{0, na / 2, na - 1} {
			name := fmt.Sprintf("farthest frame %d of %d", pos, na)
			cases[name] = [2]*traj.Trajectory{
				withFarFrame(synth.Walk("a", 6, na, 9, 0), pos),
				synth.Walk("b", 6, 9, 9, 1),
			}
		}
	}
	return cases
}

// withFarFrame moves frame pos of t far from everything else, so that
// it is the row realising the directed distance from t to any
// trajectory that stayed where t was.
func withFarFrame(t *traj.Trajectory, pos int) *traj.Trajectory {
	for i := range t.Frames[pos].Coords {
		t.Frames[pos].Coords[i][0] += 100
	}
	return t
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
// |A|·|B| pairs, in either direction and wherever the row that realises
// h sits relative to the probe. Under a seed above every frame distance
// it returns the seed having completed at most one evaluation per row —
// the first one already shows the row is below it; under +Inf the
// packed kernels skip every row, the probe included, through the row
// bound and touch no atom at all.
func TestSeededDirectedPass(t *testing.T) {
	for name, pair := range symmetricCases() {
		for _, dir := range [][2]*traj.Trajectory{{pair[0], pair[1]}, {pair[1], pair[0]}} {
			a, b := dir[0], dir[1]
			na, nb := a.NFrames(), b.NFrames()
			if na == 0 || nb == 0 {
				continue
			}
			name := fmt.Sprintf("%s (%s→%s)", name, a.Name, b.Name)
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
}

// ensemblePairs returns every pair of a four-trajectory ensemble in each
// benchmark regime, built as BENCH_psa.json's ensembles are.
func ensemblePairs(atoms, frames int) map[string][][2]*traj.Trajectory {
	out := make(map[string][][2]*traj.Trajectory)
	for kind, ens := range map[string]traj.Ensemble{
		"walk": synth.Ensemble(synth.EnsemblePreset{Name: "bench", NAtoms: atoms, NFrames: frames}, 4, 41),
		"path": synth.PathEnsemble(4, atoms, frames, 43),
	} {
		for i := range ens {
			for j := i + 1; j < len(ens); j++ {
				out[kind] = append(out[kind], [2]*traj.Trajectory{ens[i], ens[j]})
			}
		}
	}
	return out
}

// recordedShapePairs are trajectory pairs at the shape BENCH_psa.json
// records (96 atoms × 16 frames).
func recordedShapePairs() map[string][][2]*traj.Trajectory { return ensemblePairs(96, 16) }

// dRMSCalls is what a kernel's time goes into: evaluations started,
// whether they completed or abandoned.
func dRMSCalls(c Counters) int64 { return c.Evaluated + c.Abandoned }

// The carry must pay on the benchmark regimes: the symmetric distance
// never runs more dRMS evaluations, completed or abandoned, than its
// two directed passes run on their own, and strictly fewer at the
// recorded shape. (On small inputs the probe row can leave the carry
// nothing to save: a forward pass that starts its sweep at h(A→B)
// already stops every row at its first evaluation.)
func TestCarriedMaximumSavesEvaluations(t *testing.T) {
	count := func(pairs [][2]*traj.Trajectory, m Method) (apart, carried Counters) {
		for _, p := range pairs {
			a, b := p[0], p[1]
			seededKernels(a, b)[m.String()](0, &apart)
			seededKernels(b, a)[m.String()](0, &apart)
			DistanceCounted(a, b, m, &carried)
		}
		return apart, carried
	}
	cases := symmetricCases()
	for _, m := range []Method{EarlyBreak, Pruned, Indexed} {
		for _, name := range []string{"walk", "path"} {
			apart, carried := count([][2]*traj.Trajectory{cases[name]}, m)
			if got, was := dRMSCalls(carried), dRMSCalls(apart); got > was {
				t.Errorf("%s/%v: %d dRMS evaluations with the carry, %d without", name, m, got, was)
			}
		}
		for name, pairs := range recordedShapePairs() {
			apart, carried := count(pairs, m)
			if got, was := dRMSCalls(carried), dRMSCalls(apart); got >= was {
				t.Errorf("recorded shape %s/%v: %d dRMS evaluations with the carry, %d without", name, m, got, was)
			}
		}
	}
}
