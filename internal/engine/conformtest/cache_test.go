// Cold-vs-warm-cache column of the conformance matrix: every engine ×
// method × schedule must be bit-identical when served from a warm block
// store, with kernel work dropping to exactly the missing-block share —
// zero on a fully warm store, only the new row/column blocks on a
// grown ensemble.
package conformtest

import (
	"fmt"
	"testing"

	"mdtask/internal/blockstore"
	"mdtask/internal/hausdorff"
	"mdtask/internal/jobs"
	"mdtask/internal/psa"
)

// conformBlocks is the schedule size of the conformance spec
// (Parallelism=2 → n1=2 over the 4-trajectory ensemble).
func conformBlocks(t *testing.T, fullMatrix bool) int {
	t.Helper()
	blocks, err := psa.Partition(confN, 2, !fullMatrix)
	if err != nil {
		t.Fatal(err)
	}
	return len(blocks)
}

func TestPSAWarmCacheConformance(t *testing.T) {
	dir := writeConformEnsemble(t)
	reg := jobs.DefaultRegistry()
	_, ref, _, err := jobs.RunLocal(reg, jobs.Spec{
		Analysis: jobs.AnalysisPSA, Engine: jobs.EngineSerial, Path: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Matrix

	for _, engine := range jobs.Engines {
		for _, m := range hausdorff.Methods {
			method := m.String()
			for _, fullMatrix := range []bool{false, true} {
				for _, maxFrames := range []int{0, confWindow} {
					engine, method, fullMatrix, maxFrames := engine, method, fullMatrix, maxFrames
					name := fmt.Sprintf("%s/%s/full=%v/window=%d", engine, method, fullMatrix, maxFrames)
					t.Run(name, func(t *testing.T) {
						store := blockstore.New(0)
						spec := jobs.Spec{
							Analysis:          jobs.AnalysisPSA,
							Engine:            engine,
							Parallelism:       2,
							Method:            method,
							FullMatrix:        fullMatrix,
							MaxResidentFrames: maxFrames,
							Path:              dir,
						}
						norm, in, err := jobs.Resolve(spec)
						if err != nil {
							t.Fatal(err)
						}
						nBlocks := int64(conformBlocks(t, fullMatrix))

						cold, coldM, err := jobs.RunCached(reg, norm, in, store)
						if err != nil {
							t.Fatal(err)
						}
						for i := range want.Data {
							if cold.Matrix.Data[i] != want.Data[i] {
								t.Fatalf("cold matrix differs at %d", i)
							}
						}
						if coldM.Tasks != coldM.TasksPlanned {
							t.Fatalf("cold run ran %d tasks, planned %d", coldM.Tasks, coldM.TasksPlanned)
						}
						if coldM.BlockCacheHits != 0 || coldM.BlockCacheMisses != nBlocks {
							t.Fatalf("cold lookups: hits=%d misses=%d, want 0/%d",
								coldM.BlockCacheHits, coldM.BlockCacheMisses, nBlocks)
						}

						warm, warmM, err := jobs.RunCached(reg, norm, in, store)
						if err != nil {
							t.Fatal(err)
						}
						for i := range want.Data {
							if warm.Matrix.Data[i] != want.Data[i] {
								t.Fatalf("warm matrix differs at %d", i)
							}
						}
						if warmM.Tasks != warmM.TasksPlanned {
							t.Fatalf("warm run ran %d tasks, planned %d", warmM.Tasks, warmM.TasksPlanned)
						}
						if warmM.BlockCacheHits != nBlocks || warmM.BlockCacheMisses != 0 {
							t.Fatalf("warm lookups: hits=%d misses=%d, want %d/0",
								warmM.BlockCacheHits, warmM.BlockCacheMisses, nBlocks)
						}
						// Every block was served from the store: no kernel ran.
						if total := warmM.PairsEvaluated + warmM.PairsPruned + warmM.PairsAbandoned; total != 0 {
							t.Fatalf("warm run evaluated %d directed pairs, want 0", total)
						}
						if warmM.NodesVisited != 0 || warmM.NodesPruned != 0 {
							t.Fatalf("warm run descended ball trees: visited=%d pruned=%d",
								warmM.NodesVisited, warmM.NodesPruned)
						}
						if warmM.BlockCacheBytesSaved <= 0 {
							t.Fatal("warm run saved no bytes")
						}
					})
				}
			}
		}
	}
}

// Growing a cached ensemble by one trajectory must recompute only the
// new row/column blocks — O(ΔN·N) of the O(N²) schedule — on every
// engine, and still assemble the bit-identical full matrix.
func TestPSADeltaResubmissionRunsOnlyMissingBlocks(t *testing.T) {
	const (
		baseN  = 4
		grownN = 5
		atoms  = 8
		frames = 4
		seed   = 101
	)
	synthSpec := func(count int, engine string) jobs.Spec {
		return jobs.Spec{
			Analysis: jobs.AnalysisPSA,
			Engine:   engine,
			Tasks:    64, // force n1=1: one block per trajectory pair
			Synth:    &jobs.SynthSpec{Count: count, Atoms: atoms, Frames: frames, Seed: seed},
		}
	}
	reg := jobs.DefaultRegistry()

	// Uncached reference for the grown ensemble.
	_, ref, _, err := jobs.RunLocal(reg, synthSpec(grownN, jobs.EngineSerial))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Matrix

	// n1=1 triangular schedules: 10 blocks over 4, 15 over 5 — the 5
	// new ones are trajectory 4's row, of which the 1×1 diagonal block
	// holds no pairs, so exactly 4 new comparisons × 2F² directed pairs
	// run on the delta submission.
	const (
		baseBlocks  = baseN * (baseN + 1) / 2
		grownBlocks = grownN * (grownN + 1) / 2
		deltaPairs  = int64(baseN * 2 * frames * frames)
	)

	for _, engine := range jobs.Engines {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			store := blockstore.New(0)

			norm1, in1, err := jobs.Resolve(synthSpec(baseN, engine))
			if err != nil {
				t.Fatal(err)
			}
			_, m1, err := jobs.RunCached(reg, norm1, in1, store)
			if err != nil {
				t.Fatal(err)
			}
			if m1.BlockCacheMisses != baseBlocks || m1.BlockCacheHits != 0 {
				t.Fatalf("base run lookups: hits=%d misses=%d, want 0/%d",
					m1.BlockCacheHits, m1.BlockCacheMisses, baseBlocks)
			}

			norm2, in2, err := jobs.Resolve(synthSpec(grownN, engine))
			if err != nil {
				t.Fatal(err)
			}
			res, m2, err := jobs.RunCached(reg, norm2, in2, store)
			if err != nil {
				t.Fatal(err)
			}
			if m1.Tasks != m1.TasksPlanned || m2.Tasks != m2.TasksPlanned {
				t.Fatalf("base run ran %d tasks, planned %d; delta run ran %d, planned %d",
					m1.Tasks, m1.TasksPlanned, m2.Tasks, m2.TasksPlanned)
			}
			if m2.BlockCacheHits != baseBlocks || m2.BlockCacheMisses != grownBlocks-baseBlocks {
				t.Fatalf("delta run lookups: hits=%d misses=%d, want %d/%d",
					m2.BlockCacheHits, m2.BlockCacheMisses, baseBlocks, grownBlocks-baseBlocks)
			}
			if total := m2.PairsEvaluated + m2.PairsPruned + m2.PairsAbandoned; total != deltaPairs {
				t.Fatalf("delta run scanned %d directed pairs, want %d (the new row only)",
					total, deltaPairs)
			}
			if res.Matrix.N != grownN {
				t.Fatalf("delta matrix is %d×%d", res.Matrix.N, res.Matrix.N)
			}
			for i := range want.Data {
				if res.Matrix.Data[i] != want.Data[i] {
					t.Fatalf("%s: delta-assembled matrix differs from reference at flat index %d: %v != %v",
						engine, i, res.Matrix.Data[i], want.Data[i])
				}
			}
		})
	}
}
