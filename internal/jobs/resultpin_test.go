package jobs

import (
	"fmt"
	"testing"
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
	// results differ by approach only in their run statistics.
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
			"6513be51d81b306f77e39d39b5e4fc2dbf58e1ac9f2714cc86c7d4a4eeb61407"},
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
