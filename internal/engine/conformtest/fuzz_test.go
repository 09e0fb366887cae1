package conformtest

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"mdtask/internal/jobs"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// FuzzEnginesAgree is the engine-level differential test of the
// exactness contract: where TestPSAEngineConformance runs one fixed
// walk ensemble, this runs the adversarial generator of the kernel fuzz
// (synth.Adversarial: duplicate frames, one frame, zero atoms,
// coincident centroids, 1e-30…1e30 magnitudes, unequal frame counts)
// through jobs.RunLocal on every engine × {pruned, indexed} × both
// schedules, and asserts the matrix bit-identical to serial/naive and
// every scheduled directed frame pair accounted exactly once.
func FuzzEnginesAgree(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(5), uint8(1), uint64(1))  // walk, four trajectories
	f.Add(uint8(3), uint8(1), uint8(6), uint8(2), uint64(7))  // duplicate frames, revisited
	f.Add(uint8(5), uint8(0), uint8(0), uint8(4), uint64(3))  // shared start, one frame first
	f.Add(uint8(0), uint8(1), uint8(3), uint8(2), uint64(5))  // zero atoms
	f.Add(uint8(6), uint8(2), uint8(7), uint8(3), uint64(11)) // coincident centroids
	f.Add(uint8(2), uint8(0), uint8(4), uint8(0), uint64(9))  // independent frames, huge magnitude
	f.Add(uint8(1), uint8(1), uint8(2), uint8(1), uint64(6))  // one atom, tiny magnitude
	reg := jobs.DefaultRegistry()
	f.Fuzz(func(t *testing.T, nAtoms, nTrajs, nFrames, kind uint8, seed uint64) {
		frames := make([]int, 2+int(nTrajs)%3)
		for i := range frames {
			frames[i] = 1 + (int(nFrames)+3*i)%8 // unequal frame counts
		}
		dir := t.TempDir()
		for _, tr := range synth.Adversarial(int(nAtoms)%9, frames, kind, seed) {
			if err := traj.WriteMDTFile(filepath.Join(dir, tr.Name+".mdt"), tr, 8); err != nil {
				t.Fatal(err)
			}
		}
		_, ref, _, err := jobs.RunLocal(reg, jobs.Spec{Analysis: jobs.AnalysisPSA, Engine: jobs.EngineSerial, Path: dir})
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Matrix

		// Each scheduled comparison scans 2·Fi·Fj directed pairs; the
		// symmetric schedule drops the diagonal and the mirror half.
		var symPairs, fullPairs int64
		for i, fi := range frames {
			for j, fj := range frames {
				fullPairs += int64(2 * fi * fj)
				if i < j {
					symPairs += int64(2 * fi * fj)
				}
			}
		}
		for _, engine := range jobs.Engines {
			for _, method := range []string{"pruned", "indexed"} {
				for _, fullMatrix := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/full=%v", engine, method, fullMatrix)
					_, res, metrics, err := jobs.RunLocal(reg, jobs.Spec{
						Analysis: jobs.AnalysisPSA, Engine: engine, Parallelism: 2,
						Method: method, FullMatrix: fullMatrix, Path: dir,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got := res.Matrix
					if got.N != want.N {
						t.Fatalf("%s: matrix is %d×%d, want %d", name, got.N, got.N, want.N)
					}
					for i := range want.Data {
						if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
							t.Fatalf("%s: matrix differs from serial/naive at flat index %d: %v != %v",
								name, i, got.Data[i], want.Data[i])
						}
					}
					wantPairs := symPairs
					if fullMatrix {
						wantPairs = fullPairs
					}
					if total := metrics.PairsEvaluated + metrics.PairsPruned + metrics.PairsAbandoned; total != wantPairs {
						t.Fatalf("%s: counters evaluated=%d pruned=%d abandoned=%d sum to %d, want %d", name,
							metrics.PairsEvaluated, metrics.PairsPruned, metrics.PairsAbandoned, total, wantPairs)
					}
				}
			}
		}
	})
}
