package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"mdtask/internal/blockstore"
	"mdtask/internal/engine"
	"mdtask/internal/hausdorff"
	"mdtask/internal/psa"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// The BenchmarkHausdorff* family compares the four exact Hausdorff
// kernels — naive, early-break (Taha & Hanbury), pruned (centroid/
// radius-of-gyration lower bounds + bounded-dRMS early-abandon +
// temporal-coherence ordering) and indexed (the same bounds aggregated
// into a ball tree over frame signatures, searched best-first) — on two
// synthetic regimes:
//
//   - walk: every trajectory equilibrates in place around its own random
//     configuration (the existing benchPSAEnsemble). Centroids barely
//     move, so pruning must come from bounded evaluation and the
//     early-break row cut.
//   - path: trajectories diverge from a shared starting configuration
//     along different directions (synth.PathEnsemble), the
//     transition-path regime Path Similarity Analysis targets. Frame
//     centroids separate over time, so the O(1) centroid bound and the
//     temporal row bound dominate.
//
// Each benchmark reports the exact frame-pair counter values alongside
// wall time. Run with:
//
//	go test -bench Hausdorff ./internal/bench
//
// make bench-json records the counters (and the full-evaluation
// reduction versus early-break) in BENCH_psa.json; time is the end-to-end
// benchmark's to measure, never the baseline's.

// benchPathEnsemble mirrors benchPSAEnsemble's dimensions in the
// diverging-path regime.
func benchPathEnsemble() traj.Ensemble {
	return synth.PathEnsemble(benchPSATrajs, benchPSAAtoms, benchPSAFrames, 43)
}

// kernelCounters runs one serial PSA pass and returns the kernel's
// frame-pair accounting. The counters are a pure function of the
// ensemble and method — identical on every engine and every run.
func kernelCounters(ens traj.Ensemble, m hausdorff.Method) engine.Snapshot {
	sink := &engine.Metrics{}
	if _, err := psa.SerialRefs(traj.RefsOf(ens), psa.Opts{Symmetric: true, Method: m, Env: engine.Env{Metrics: sink}}); err != nil {
		panic(err)
	}
	return sink.Snapshot()
}

// benchHausdorff times one kernel over one ensemble and reports its
// exact pair accounting.
func benchHausdorff(b *testing.B, ens traj.Ensemble, m hausdorff.Method) {
	b.Helper()
	s := kernelCounters(ens, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := psa.SerialRefs(traj.RefsOf(ens), psa.Opts{Symmetric: true, Method: m}); err != nil {
			b.Fatal(err)
		}
	}
	total := s.PairsEvaluated + s.PairsPruned + s.PairsAbandoned
	b.ReportMetric(float64(s.PairsEvaluated), "evaluated-pairs")
	b.ReportMetric(float64(s.PairsPruned), "pruned-pairs")
	b.ReportMetric(float64(s.PairsAbandoned), "abandoned-pairs")
	if total > 0 {
		b.ReportMetric(float64(total-s.PairsEvaluated)/float64(total), "pruned-fraction")
	}
	if s.NodesVisited+s.NodesPruned > 0 {
		b.ReportMetric(float64(s.NodesVisited), "nodes-visited")
		b.ReportMetric(float64(s.NodesPruned), "nodes-pruned")
	}
}

func benchHausdorffEnsembles(b *testing.B, m hausdorff.Method) {
	b.Helper()
	b.Run("walk", func(b *testing.B) { benchHausdorff(b, benchPSAEnsemble(), m) })
	b.Run("path", func(b *testing.B) { benchHausdorff(b, benchPathEnsemble(), m) })
}

func BenchmarkHausdorffNaive(b *testing.B)      { benchHausdorffEnsembles(b, hausdorff.Naive) }
func BenchmarkHausdorffEarlyBreak(b *testing.B) { benchHausdorffEnsembles(b, hausdorff.EarlyBreak) }
func BenchmarkHausdorffPruned(b *testing.B)     { benchHausdorffEnsembles(b, hausdorff.Pruned) }
func BenchmarkHausdorffIndexed(b *testing.B)    { benchHausdorffEnsembles(b, hausdorff.Indexed) }

// TestPrunedKernelEvalReduction pins the headline number of the pruned
// kernel pipeline: on both synthetic ensemble regimes it must perform
// at least 3× fewer full dRMS evaluations than early-break while
// producing the identical matrix, with self-consistent counters. The
// counters are deterministic, so this is an exact assertion, not a
// timing-dependent one.
func TestPrunedKernelEvalReduction(t *testing.T) {
	for _, tc := range []struct {
		name string
		ens  traj.Ensemble
	}{
		{"walk", benchPSAEnsemble()},
		{"path", benchPathEnsemble()},
	} {
		want, err := psa.SerialRefs(traj.RefsOf(tc.ens), psa.Opts{Method: hausdorff.Naive})
		if err != nil {
			t.Fatal(err)
		}
		got, err := psa.SerialRefs(traj.RefsOf(tc.ens), psa.Opts{Symmetric: true, Method: hausdorff.Pruned})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("%s: element %d: pruned %v != naive %v", tc.name, i, got.Data[i], want.Data[i])
			}
		}
		eb := kernelCounters(tc.ens, hausdorff.EarlyBreak)
		pr := kernelCounters(tc.ens, hausdorff.Pruned)
		if pr.PairsEvaluated == 0 {
			t.Fatalf("%s: pruned kernel recorded no evaluations", tc.name)
		}
		if ratio := float64(eb.PairsEvaluated) / float64(pr.PairsEvaluated); ratio < 3 {
			t.Errorf("%s: pruned performs only %.2fx fewer full dRMS evaluations than early-break "+
				"(early-break %d, pruned %d), want >= 3x",
				tc.name, ratio, eb.PairsEvaluated, pr.PairsEvaluated)
		}
		ebTotal := eb.PairsEvaluated + eb.PairsPruned + eb.PairsAbandoned
		prTotal := pr.PairsEvaluated + pr.PairsPruned + pr.PairsAbandoned
		if ebTotal != prTotal {
			t.Errorf("%s: kernel pair totals disagree: early-break %d, pruned %d", tc.name, ebTotal, prTotal)
		}
	}
}

// TestIndexedKernelEvalReduction pins the headline number of the
// indexed kernel: on both ensemble regimes it must complete strictly
// fewer full dRMS evaluations than the flat pruned kernel — the whole
// point of aggregating the bound into tree nodes — while producing the
// bit-identical matrix with the same pair total. The counters are
// deterministic, so this is an exact assertion.
func TestIndexedKernelEvalReduction(t *testing.T) {
	for _, tc := range []struct {
		name string
		ens  traj.Ensemble
	}{
		{"walk", benchPSAEnsemble()},
		{"path", benchPathEnsemble()},
	} {
		want, err := psa.SerialRefs(traj.RefsOf(tc.ens), psa.Opts{Method: hausdorff.Naive})
		if err != nil {
			t.Fatal(err)
		}
		got, err := psa.SerialRefs(traj.RefsOf(tc.ens), psa.Opts{Symmetric: true, Method: hausdorff.Indexed})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("%s: element %d: indexed %v != naive %v", tc.name, i, got.Data[i], want.Data[i])
			}
		}
		pr := kernelCounters(tc.ens, hausdorff.Pruned)
		ix := kernelCounters(tc.ens, hausdorff.Indexed)
		if ix.PairsEvaluated == 0 {
			t.Fatalf("%s: indexed kernel recorded no evaluations", tc.name)
		}
		if ix.PairsEvaluated >= pr.PairsEvaluated {
			t.Errorf("%s: indexed completed %d full dRMS evaluations, pruned %d — want strictly fewer",
				tc.name, ix.PairsEvaluated, pr.PairsEvaluated)
		}
		if ix.NodesVisited == 0 {
			t.Errorf("%s: indexed kernel visited no tree nodes", tc.name)
		}
		prTotal := pr.PairsEvaluated + pr.PairsPruned + pr.PairsAbandoned
		ixTotal := ix.PairsEvaluated + ix.PairsPruned + ix.PairsAbandoned
		if prTotal != ixTotal {
			t.Errorf("%s: kernel pair totals disagree: pruned %d, indexed %d", tc.name, prTotal, ixTotal)
		}
	}
}

// benchJSONEntry is one method's record in BENCH_psa.json.
type benchJSONEntry struct {
	Method         string  `json:"method"`
	PairsEvaluated int64   `json:"pairs_evaluated"`
	PairsPruned    int64   `json:"pairs_pruned"`
	PairsAbandoned int64   `json:"pairs_abandoned"`
	PrunedFraction float64 `json:"pruned_fraction"`
	NodesVisited   int64   `json:"nodes_visited,omitempty"`
	NodesPruned    int64   `json:"nodes_pruned,omitempty"`
}

type benchJSONEnsemble struct {
	Kind          string           `json:"kind"`
	Trajectories  int              `json:"trajectories"`
	Atoms         int              `json:"atoms"`
	Frames        int              `json:"frames"`
	Methods       []benchJSONEntry `json:"methods"`
	EvalReduction float64          `json:"full_eval_reduction_vs_early_break"`
	// IndexedEvalReduction is the headline number of the indexed
	// kernel: full dRMS evaluations of pruned over indexed (> 1 means
	// the tree descent settles more pairs without touching atoms).
	IndexedEvalReduction float64 `json:"indexed_eval_reduction_vs_pruned"`
}

// benchBlockCacheJSON records the block store's effectiveness in
// BENCH_psa.json: the lookup counters of a cold run, a warm rerun, and
// a one-trajectory-grown delta run over one shared store. Every field
// is a deterministic function of the synth ensemble and the n1=1
// schedule, so cmd/benchgate compares them exactly.
type benchBlockCacheJSON struct {
	Trajectories      int   `json:"trajectories"`
	GrownTrajectories int   `json:"grown_trajectories"`
	Blocks            int   `json:"blocks"`
	GrownBlocks       int   `json:"grown_blocks"`
	ColdMisses        int64 `json:"cold_misses"`
	WarmHits          int64 `json:"warm_hits"`
	WarmBytesSaved    int64 `json:"warm_bytes_saved"`
	DeltaHits         int64 `json:"delta_hits"`
	DeltaMisses       int64 `json:"delta_misses"`
}

// benchStreamedJSON records the streamed pruned kernel's deterministic
// cost on one multi-window ensemble in BENCH_psa.json: the pair
// counters, the windows it decoded and the coordinate bytes that came
// with them (the read amplification of the out-of-core path, as a
// count), next to what the in-memory pruned kernel evaluates and
// abandons on the same ensemble. cmd/benchgate gates all of it.
type benchStreamedJSON struct {
	Kind           string `json:"kind"`
	Trajectories   int    `json:"trajectories"`
	Atoms          int    `json:"atoms"`
	Frames         int    `json:"frames"`
	Window         int    `json:"window"`
	PairsEvaluated int64  `json:"pairs_evaluated"`
	PairsPruned    int64  `json:"pairs_pruned"`
	PairsAbandoned int64  `json:"pairs_abandoned"`
	WindowsDecoded int64  `json:"windows_decoded"`
	BytesStreamed  int64  `json:"bytes_streamed"`
	InMemEvaluated int64  `json:"inmem_pairs_evaluated"`
	InMemAbandoned int64  `json:"inmem_pairs_abandoned"`
}

// Shape of the streamed section's ensembles: four windows of 16 frames
// per trajectory, so what the fold does across windows is what is being
// counted.
const (
	benchStreamedTrajs  = 8
	benchStreamedFrames = 64
	benchStreamedWindow = 16
)

// measureStreamed runs the streamed and the in-memory pruned kernel
// over every pair of the ensemble.
func measureStreamed(kind string, ens traj.Ensemble) benchStreamedJSON {
	refs := traj.RefsOf(ens)
	var (
		sc, mc hausdorff.Counters
		st     hausdorff.StreamStats
	)
	for i := range ens {
		for j := i + 1; j < len(ens); j++ {
			got, err := hausdorff.DistanceStreamed(refs[i], refs[j], benchStreamedWindow, hausdorff.Pruned, &sc, &st)
			if err != nil {
				panic(err)
			}
			if want := hausdorff.DistanceCounted(ens[i], ens[j], hausdorff.Pruned, &mc); got != want {
				panic(fmt.Sprintf("%s pair (%d,%d): streamed %v != in-memory %v", kind, i, j, got, want))
			}
		}
	}
	return benchStreamedJSON{
		Kind: kind, Trajectories: len(ens), Atoms: benchPSAAtoms, Frames: benchStreamedFrames, Window: benchStreamedWindow,
		PairsEvaluated: sc.Evaluated, PairsPruned: sc.Pruned, PairsAbandoned: sc.Abandoned,
		WindowsDecoded: st.WindowsDecoded, BytesStreamed: st.BytesStreamed,
		InMemEvaluated: mc.Evaluated, InMemAbandoned: mc.Abandoned,
	}
}

// measureBlockCache runs the cold/warm/delta scenario and returns its
// counters.
func measureBlockCache() benchBlockCacheJSON {
	const (
		baseN, grownN = 8, 9
		atoms, frames = 16, 8
	)
	refsOf := func(n int) traj.RefEnsemble {
		ens := make(traj.Ensemble, n)
		for i := range ens {
			ens[i] = synth.Walk(fmt.Sprintf("bc-%02d", i), atoms, frames, 61, uint64(i))
		}
		return traj.RefsOf(ens)
	}
	store := blockstore.New(0)
	run := func(n int) engine.Snapshot {
		refs := refsOf(n)
		blocks, err := psa.Partition(n, 1, true)
		if err != nil {
			panic(err)
		}
		sink := &engine.Metrics{}
		for _, b := range blocks {
			if _, err := psa.ComputeBlockRefs(refs, b, psa.Opts{Symmetric: true, Cache: store, Env: engine.Env{Metrics: sink}}); err != nil {
				panic(err)
			}
		}
		return sink.Snapshot()
	}
	cold := run(baseN)
	warm := run(baseN)
	delta := run(grownN)
	return benchBlockCacheJSON{
		Trajectories:      baseN,
		GrownTrajectories: grownN,
		Blocks:            baseN * (baseN + 1) / 2,
		GrownBlocks:       grownN * (grownN + 1) / 2,
		ColdMisses:        cold.BlockCacheMisses,
		WarmHits:          warm.BlockCacheHits,
		WarmBytesSaved:    warm.BlockCacheBytesSaved,
		DeltaHits:         delta.BlockCacheHits,
		DeltaMisses:       delta.BlockCacheMisses,
	}
}

// TestWriteBenchPSAJSON records the kernel counters to the file
// named by MDTASK_BENCH_JSON (skipped when unset — it is driven by
// `make bench-json`, which CI runs as a non-gating step).
func TestWriteBenchPSAJSON(t *testing.T) {
	out := os.Getenv("MDTASK_BENCH_JSON")
	if out == "" {
		t.Skip("MDTASK_BENCH_JSON not set; run via make bench-json")
	}
	report := struct {
		Benchmark  string               `json:"benchmark"`
		Ensembles  []benchJSONEnsemble  `json:"ensembles"`
		Streamed   []benchStreamedJSON  `json:"streamed"`
		BlockCache *benchBlockCacheJSON `json:"block_cache,omitempty"`
	}{Benchmark: "psa-hausdorff-kernel"}
	bc := measureBlockCache()
	report.BlockCache = &bc
	report.Streamed = []benchStreamedJSON{
		measureStreamed("walk", synth.Ensemble(synth.EnsemblePreset{
			Name: "bench", NAtoms: benchPSAAtoms, NFrames: benchStreamedFrames,
		}, benchStreamedTrajs, 41)),
		measureStreamed("path", synth.PathEnsemble(benchStreamedTrajs, benchPSAAtoms, benchStreamedFrames, 43)),
	}
	for _, tc := range []struct {
		kind string
		ens  traj.Ensemble
	}{
		{"walk", benchPSAEnsemble()},
		{"path", benchPathEnsemble()},
	} {
		e := benchJSONEnsemble{
			Kind:         tc.kind,
			Trajectories: benchPSATrajs,
			Atoms:        benchPSAAtoms,
			Frames:       benchPSAFrames,
		}
		evaluated := make(map[string]int64)
		for _, m := range hausdorff.Methods {
			s := kernelCounters(tc.ens, m)
			total := s.PairsEvaluated + s.PairsPruned + s.PairsAbandoned
			entry := benchJSONEntry{
				Method:         m.String(),
				PairsEvaluated: s.PairsEvaluated,
				PairsPruned:    s.PairsPruned,
				PairsAbandoned: s.PairsAbandoned,
				NodesVisited:   s.NodesVisited,
				NodesPruned:    s.NodesPruned,
			}
			if total > 0 {
				entry.PrunedFraction = float64(total-s.PairsEvaluated) / float64(total)
			}
			evaluated[m.String()] = s.PairsEvaluated
			e.Methods = append(e.Methods, entry)
		}
		if evaluated["pruned"] > 0 {
			e.EvalReduction = float64(evaluated["early-break"]) / float64(evaluated["pruned"])
		}
		if evaluated["indexed"] > 0 {
			e.IndexedEvalReduction = float64(evaluated["pruned"]) / float64(evaluated["indexed"])
		}
		report.Ensembles = append(report.Ensembles, e)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
