package jobs

import (
	"encoding/json"
	"testing"
)

// BenchmarkEncodeResult times the result encoding a job pays at finish
// and on every GET …/result, by reflection (encoding-json, the encoder
// the server used before) and by appendResult, on the two shapes the
// service benchmark's workloads produce: leaflet-cold's 32 768-atom
// dask/tree result (316 690 bytes) and psa-cold's 8×8 matrix.
func BenchmarkEncodeResult(b *testing.B) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"leaflet-32k", Spec{Analysis: AnalysisLeaflet, Engine: EngineDask, Approach: "tree",
			Synth: &SynthSpec{Atoms: 32768, Seed: 1}}},
		{"psa-8x8", Spec{Analysis: AnalysisPSA, Engine: EngineDask, Method: "pruned",
			Synth: &SynthSpec{Count: 8, Atoms: 1024, Frames: 64, Seed: 1}}},
	} {
		spec, in, err := Resolve(tc.spec)
		if err != nil {
			b.Fatal(err)
		}
		res, _, err := Run(DefaultRegistry(), spec, in)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name+"/encoding-json", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := json.Marshal(res); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/appendResult", func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				if buf, err = appendResult(buf[:0], res); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}
