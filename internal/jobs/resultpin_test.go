package jobs

import (
	"fmt"
	"runtime"
	"testing"

	"mdtask/internal/leaflet"
)

// TestResultPins pins the result digest (resultDigest: the SHA-256 of
// the served JSON encoding) of one small job per PSA method, in memory
// and streamed, and per Leaflet Finder approach. TestStagingGolden pins
// the inputs; this pins what the kernels make of them, so a change that
// moves a result's bits fails here and not only in a cross-kernel
// comparison that every kernel could fail alike. The pins hold on every
// GOARCH: the generic kernels (GOARCH=386) and the vector ones must
// write the same bits. A change that moves a pin changes the arithmetic
// a result is computed with, so it also moves CacheKey's version prefix
// (or says why a cached result of the old arithmetic may still be
// served).
func TestResultPins(t *testing.T) {
	psaIn := &SynthSpec{Count: 5, Atoms: 24, Frames: 10, Seed: 7}
	leafletIn := &SynthSpec{Atoms: 512, Seed: 3}
	// Every PSA method and window agrees (docs/kernels.md); the Leaflet
	// results differ by approach only in their run statistics (the tree
	// approach plans its own tiles by cost, so it no longer shares
	// parallel-cc's).
	const psaPin = "d427f41be2df65a9a0fe1aafed23a2f8940689a21d0e778d99147349868d17d0"
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{Analysis: AnalysisPSA, Method: "naive", Synth: psaIn}, psaPin},
		{Spec{Analysis: AnalysisPSA, Method: "early-break", Synth: psaIn}, psaPin},
		{Spec{Analysis: AnalysisPSA, Method: "pruned", Synth: psaIn}, psaPin},
		{Spec{Analysis: AnalysisPSA, Method: "indexed", Synth: psaIn}, psaPin},
		{Spec{Analysis: AnalysisPSA, Method: "naive", MaxResidentFrames: 3, Synth: psaIn}, psaPin},
		{Spec{Analysis: AnalysisPSA, Method: "early-break", MaxResidentFrames: 3, Synth: psaIn}, psaPin},
		{Spec{Analysis: AnalysisPSA, Method: "pruned", MaxResidentFrames: 3, Synth: psaIn}, psaPin},
		{Spec{Analysis: AnalysisPSA, Method: "indexed", MaxResidentFrames: 3, Synth: psaIn}, psaPin},
		{Spec{Analysis: AnalysisLeaflet, Approach: "broadcast", Tasks: 16, Synth: leafletIn},
			"708161b9e878925deaa90fa42519b08ac5a8f4c4a5f3bedaddcb93b3b0298bb7"},
		{Spec{Analysis: AnalysisLeaflet, Approach: "task2d", Tasks: 16, Synth: leafletIn},
			"01417faee1a2235a7a71007d48a144bc2c6edf21ba92791608ab307283c1f977"},
		{Spec{Analysis: AnalysisLeaflet, Approach: "parallel-cc", Tasks: 16, Synth: leafletIn},
			"6513be51d81b306f77e39d39b5e4fc2dbf58e1ac9f2714cc86c7d4a4eeb61407"},
		{Spec{Analysis: AnalysisLeaflet, Approach: "tree", Tasks: 16, Synth: leafletIn},
			"bbf68ec12820a769c38acd24ea55e60647e50b011b01bf844feca7272cf4fbde"},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s/%s%s/window=%d", c.spec.Analysis, c.spec.Method, c.spec.Approach, c.spec.MaxResidentFrames)
		t.Run(name, func(t *testing.T) {
			_, res, _, err := RunLocal(DefaultRegistry(), c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := mustResultDigest(t, res); got != c.want {
				t.Errorf("result digest %s, want %s", got, c.want)
			}
		})
	}
}

// TestTreePlanIgnoresGOMAXPROCS: the tree approach plans its tiles for
// the spec's workers (Spec.leafletWorkers), never the machine's, because
// the plan shows in the result's Stats and so in its digest. One spec on
// an executor sized by the machine (dask at parallelism 0) and on a
// staged engine (fleet) plans the same tiles, leaflet.Tiles for the
// spec's four ranks, and writes the same result digest under GOMAXPROCS
// 1 and 4.
func TestTreePlanIgnoresGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, eng := range []string{EngineDask, EngineFleet} {
		spec := Spec{Analysis: AnalysisLeaflet, Engine: eng, Approach: "tree", Synth: &SynthSpec{Atoms: 4096, Seed: 5}}
		norm, in, err := Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := len(leaflet.Tiles(in.Coords, norm.Cutoff, norm.Tasks, norm.ranks(), true))
		digests := map[string]bool{}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			_, res, _, err := RunLocal(DefaultRegistry(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Leaflet.Stats.Tasks; got != want {
				t.Errorf("%s GOMAXPROCS=%d: %d tiles, want the %d planned for %d workers", eng, procs, got, want, norm.ranks())
			}
			digests[mustResultDigest(t, res)] = true
		}
		if len(digests) != 1 {
			t.Errorf("%s: result digests %v differ with GOMAXPROCS", eng, digests)
		}
	}
}
