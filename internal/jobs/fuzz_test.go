package jobs

import (
	"bytes"
	"math/big"
	"reflect"
	"testing"

	"mdtask/internal/psa"
)

// FuzzSpecNormalize feeds POST /v1/jobs bodies through the server's own
// decoder (decodeSpec: unknown fields rejected) into Spec.Normalized:
// it must never panic, must be idempotent, must leave the cache key
// unchanged when re-applied, and must never admit a synth input whose
// coordinates or PSA matrix exceed MaxSynthBytes, nor a parallelism
// above MaxParallelism, nor a task count above MaxTasks, nor a PSA
// synth ensemble whose plan (counted by psa.PlanBlocks) holds more than
// MaxPSABlocks blocks. It stops at the spec and never calls
// ResolveInput, so no input it accepts is generated or read. Seed
// corpus: f.Add below plus testdata/fuzz/FuzzSpecNormalize.
func FuzzSpecNormalize(f *testing.F) {
	f.Add([]byte(`{"analysis":"psa","synth":{}}`))
	f.Add([]byte(`{"analysis":"psa","engine":"dask","method":"pruned","synth":{"count":8,"atoms":1024,"frames":64,"seed":7}}`))
	f.Add([]byte(`{"analysis":"psa","synth":{"atoms":1099511627776,"frames":2}}`))
	f.Add([]byte(`{"analysis":"leaflet","engine":"pilot","approach":"2","synth":{"preset":"4M"}}`))
	f.Add([]byte(`{"analysis":"psa","path":"/data/ens","max_resident_frames":-3,"tasks":-1}`))
	f.Add([]byte(`{"analysis":"leaflet","cutoff":-0,"path":"m.mdt","method":"naive","full_matrix":true}`))
	f.Add([]byte(`{"analysis":"psa","bogus":1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		once, err := spec.Normalized()
		if err != nil {
			return
		}
		twice, err := once.Normalized()
		if err != nil {
			t.Fatalf("normalized spec %+v rejected on re-normalization: %v", once, err)
		}
		if !reflect.DeepEqual(once, twice) {
			t.Fatalf("Normalized not idempotent:\n once %+v\ntwice %+v", once, twice)
		}
		if a, b := CacheKey(once, "d"), CacheKey(twice, "d"); a != b {
			t.Fatalf("cache key moved under re-normalization: %s → %s", a, b)
		}
		if once.Parallelism < 0 || once.Parallelism > MaxParallelism {
			t.Fatalf("admitted parallelism %d (bound %d)", once.Parallelism, MaxParallelism)
		}
		if once.Tasks < 0 || once.Tasks > MaxTasks {
			t.Fatalf("admitted tasks %d (bound %d)", once.Tasks, MaxTasks)
		}
		if g := once.Synth; g != nil {
			payload := big.NewInt(24)
			for _, n := range []int{g.Count, g.Frames, g.Atoms} {
				if n != 0 { // Leaflet clears count and frames
					payload.Mul(payload, big.NewInt(int64(n)))
				}
			}
			matrix := big.NewInt(int64(g.Count))
			matrix.Mul(matrix, matrix).Mul(matrix, big.NewInt(8))
			if payload.Cmp(big.NewInt(MaxSynthBytes)) > 0 || matrix.Cmp(big.NewInt(MaxSynthBytes)) > 0 {
				t.Fatalf("admitted synth %+v: %s bytes of coordinates, %s of matrix", *g, payload, matrix)
			}
			if once.Analysis == AnalysisPSA {
				if blocks := psa.PlanBlocks(g.Count, once.groupSize(g.Count), !once.FullMatrix); blocks > MaxPSABlocks {
					t.Fatalf("admitted synth %+v: a plan of %d blocks (bound %d)", *g, blocks, MaxPSABlocks)
				}
			}
		}
	})
}
