// Package conformtest locks down the cross-engine PSA contract: every
// engine × every kernel method × both schedules × both residency modes
// (fully in-memory and streamed out-of-core windows) must produce the
// bit-identical distance matrix, with self-consistent metrics counters
// and no shuffle.
// It runs through the jobs registry — the exact dispatch surface
// cmd/psa and cmd/mdserver use — and replaces the ad-hoc per-driver
// comparison tests the psa package used to carry. FuzzEnginesAgree
// (fuzz_test.go) asserts the same on adversarial generated ensembles.
// The same package holds the Leaflet Finder matrix (leaflet_test.go:
// every engine × approach against leaflet.Serial) and the
// engine.Executor contract suite (executor_test.go) the shared
// psa.Run / leaflet.Run rely on.
package conformtest

import (
	"fmt"
	"path/filepath"
	"testing"

	"mdtask/internal/hausdorff"
	"mdtask/internal/jobs"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

const (
	confN      = 4
	confAtoms  = 6
	confFrames = 6
	confWindow = 2
	confSeed   = 23
)

// writeConformEnsemble generates the shared input ensemble and writes
// it as .mdt files, returning the directory.
func writeConformEnsemble(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for i := 0; i < confN; i++ {
		tr := synth.Walk(fmt.Sprintf("c%d", i), confAtoms, confFrames, confSeed, uint64(i))
		if err := traj.WriteMDTFile(filepath.Join(dir, tr.Name+".mdt"), tr, 8); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// resident reports whether an ensemble's first member is memory-backed:
// loading such a ref twice returns its one trajectory, where a
// file-backed ref decodes a new one each time.
func resident(t *testing.T, refs traj.RefEnsemble) bool {
	t.Helper()
	a, err := refs[0].Load()
	if err != nil {
		t.Fatal(err)
	}
	b, err := refs[0].Load()
	if err != nil {
		t.Fatal(err)
	}
	return a == b
}

// expectedDirectedPairs is the frame-pair total every run's counters
// must sum to: each scheduled trajectory comparison scans 2·F² directed
// pairs, and the symmetric schedule drops the diagonal and mirror half.
func expectedDirectedPairs(fullMatrix bool) int64 {
	perPair := int64(2 * confFrames * confFrames)
	if fullMatrix {
		return int64(confN*confN) * perPair
	}
	return int64(confN*(confN-1)/2) * perPair
}

func TestPSAEngineConformance(t *testing.T) {
	dir := writeConformEnsemble(t)
	reg := jobs.DefaultRegistry()

	// Reference: the serial naive in-memory matrix.
	_, ref, _, err := jobs.RunLocal(reg, jobs.Spec{
		Analysis: jobs.AnalysisPSA, Engine: jobs.EngineSerial, Path: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Matrix
	if want.N != confN {
		t.Fatalf("reference matrix is %d×%d, want %d", want.N, want.N, confN)
	}

	for _, engine := range jobs.Engines {
		for _, m := range hausdorff.Methods {
			method := m.String()
			for _, fullMatrix := range []bool{false, true} {
				for _, maxFrames := range []int{0, confWindow} {
					engine, method, fullMatrix, maxFrames := engine, method, fullMatrix, maxFrames
					name := fmt.Sprintf("%s/%s/full=%v/window=%d", engine, method, fullMatrix, maxFrames)
					t.Run(name, func(t *testing.T) {
						spec := jobs.Spec{
							Analysis:          jobs.AnalysisPSA,
							Engine:            engine,
							Parallelism:       2,
							Method:            method,
							FullMatrix:        fullMatrix,
							MaxResidentFrames: maxFrames,
							Path:              dir,
						}
						in, res, metrics, err := jobs.RunLocal(reg, spec)
						if err != nil {
							t.Fatal(err)
						}
						got := res.Matrix
						if got.N != want.N {
							t.Fatalf("matrix is %d×%d, want %d", got.N, got.N, want.N)
						}
						for i := range want.Data {
							if got.Data[i] != want.Data[i] {
								t.Fatalf("matrix differs from serial naive reference at flat index %d: %v != %v",
									i, got.Data[i], want.Data[i])
							}
						}

						if metrics.Tasks <= 0 || metrics.Tasks != metrics.TasksPlanned {
							t.Fatalf("ran %d tasks, planned %d", metrics.Tasks, metrics.TasksPlanned)
						}
						// Collecting the blocks is a gather, not a shuffle,
						// on every engine.
						if metrics.BytesShuffled != 0 {
							t.Fatalf("PSA shuffled %d bytes, want 0", metrics.BytesShuffled)
						}
						// Counter invariant: every scheduled directed frame
						// pair lands in exactly one bucket.
						total := metrics.PairsEvaluated + metrics.PairsPruned + metrics.PairsAbandoned
						if wantPairs := expectedDirectedPairs(fullMatrix); total != wantPairs {
							t.Fatalf("counters evaluated=%d pruned=%d abandoned=%d sum to %d, want %d",
								metrics.PairsEvaluated, metrics.PairsPruned, metrics.PairsAbandoned, total, wantPairs)
						}
						if metrics.PairsEvaluated <= 0 {
							t.Fatal("no evaluations recorded")
						}
						// Node counters are additive to the pair invariant:
						// the indexed kernel must report descent work, the
						// flat methods must report none.
						if method == "indexed" {
							if metrics.NodesVisited <= 0 {
								t.Fatal("indexed run visited no ball-tree nodes")
							}
						} else if metrics.NodesVisited != 0 || metrics.NodesPruned != 0 {
							t.Fatalf("flat method %q recorded node counters: visited=%d pruned=%d",
								method, metrics.NodesVisited, metrics.NodesPruned)
						}

						if maxFrames > 0 {
							// Streamed runs resolve file-backed handles (no
							// loaded ensemble) and respect the residency bound.
							if resident(t, in.Refs) {
								t.Fatal("streamed run materialized the ensemble at resolve time")
							}
							if metrics.PeakResidentFrames == 0 || metrics.PeakResidentFrames > 2*confWindow {
								t.Fatalf("peak resident %d frames, want 1..%d", metrics.PeakResidentFrames, 2*confWindow)
							}
							if metrics.BytesStreamed <= 0 {
								t.Fatal("streamed run accounted no streamed bytes")
							}
						} else {
							if !resident(t, in.Refs) {
								t.Fatal("in-memory run did not load the ensemble")
							}
							if metrics.PeakResidentFrames != 0 || metrics.BytesStreamed != 0 {
								t.Fatalf("in-memory run recorded streaming accounting: peak=%d bytes=%d",
									metrics.PeakResidentFrames, metrics.BytesStreamed)
							}
						}
					})
				}
			}
		}
	}
}

// Streamed and in-memory submissions of the same on-disk input must
// share a cache identity: the input digest is computed window by window
// for streamed refs, and the spec normalizes max_resident_frames out of
// the cache key.
func TestStreamedCacheIdentity(t *testing.T) {
	dir := writeConformEnsemble(t)
	base := jobs.Spec{Analysis: jobs.AnalysisPSA, Engine: jobs.EngineSerial, Path: dir}
	normMem, inMem, err := jobs.Resolve(base)
	if err != nil {
		t.Fatal(err)
	}
	streamed := base
	streamed.MaxResidentFrames = confWindow
	normStr, inStr, err := jobs.Resolve(streamed)
	if err != nil {
		t.Fatal(err)
	}
	dMem, err := inMem.ContentDigest()
	if err != nil {
		t.Fatal(err)
	}
	dStr, err := inStr.ContentDigest()
	if err != nil {
		t.Fatal(err)
	}
	if dMem != dStr {
		t.Fatalf("streamed digest %s != in-memory digest %s", dStr, dMem)
	}
	if jobs.CacheKey(normMem, dMem) != jobs.CacheKey(normStr, dStr) {
		t.Fatal("streamed submission does not hit the in-memory cache entry")
	}
}
