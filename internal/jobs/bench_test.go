package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mdtask/internal/wal"
)

// BenchmarkResolveInput times the staging of a synth submission —
// the input generated, ContentDigest addressing it — at the shapes of
// the service benchmark's psa-cold (8×1024×64) and leaflet-cold
// (32 768 atoms) workloads, two ways. fresh is ResolveInput, as the
// CLIs and the benchmark's layer replay call it: every member in newly
// allocated memory. reused gives each input back to the pool it was
// generated from, as a finished job gives it back to the scheduler's,
// so its B/op and allocs/op are the server's steady state on a stream
// of jobs of one shape. digest-ns/op is the ContentDigest part alone;
// MB/s counts the generated coordinates.
func BenchmarkResolveInput(b *testing.B) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"psa-8x1024x64", Spec{Analysis: AnalysisPSA, Engine: EngineDask, Method: "pruned",
			Synth: &SynthSpec{Count: 8, Atoms: 1024, Frames: 64, Seed: 1}}},
		{"leaflet-32k", Spec{Analysis: AnalysisLeaflet, Engine: EngineDask, Approach: "tree",
			Synth: &SynthSpec{Atoms: 32768, Seed: 1}}},
	} {
		norm, err := tc.spec.Normalized()
		if err != nil {
			b.Fatal(err)
		}
		for _, reuse := range []bool{false, true} {
			name := tc.name + "/fresh"
			if reuse {
				name = tc.name + "/reused"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var (
					pool   *backingPool // nil: fresh memory each time
					digest time.Duration
				)
				if reuse {
					pool = &backingPool{keep: 1}
				}
				for i := 0; i < b.N; i++ {
					in, err := resolveInput(norm, pool)
					if err != nil {
						b.Fatal(err)
					}
					t0 := time.Now()
					if _, err := in.ContentDigest(); err != nil {
						b.Fatal(err)
					}
					digest += time.Since(t0)
					if i == 0 {
						b.SetBytes(in.Refs.Bytes() + int64(len(in.Coords))*24)
					}
					in.release()
				}
				b.ReportMetric(float64(digest.Nanoseconds())/float64(b.N), "digest-ns/op")
			})
		}
	}
}

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

// BenchmarkJournal times the journal's two costs: appending one state
// record (wal.SyncNever, so the encoding and the write are timed, not
// the disk) and one compaction of a table of 4 096 retained jobs (the
// default MaxJobs), each a done serve-small job, {"analysis":"psa",
// "synth":{"seed":n}} normalized. A compaction writes and fsyncs its
// snapshot whatever the sync policy; snapshot-B/op is its size.
func BenchmarkJournal(b *testing.B) {
	spec, err := Spec{Analysis: AnalysisPSA, Synth: &SynthSpec{Seed: 1}}.Normalized()
	if err != nil {
		b.Fatal(err)
	}
	now := time.Unix(1700000000, 123456789).UTC()
	open := func(b *testing.B) *WALStore {
		st, _, err := OpenWALStore(WALStoreOptions{Dir: b.TempDir(), Sync: wal.SyncNever, CompactBytes: 1 << 40})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { st.Close() })
		return st
	}
	digest := strings.Repeat("d", 64)
	admit := func(b *testing.B, st *WALStore, i int) string {
		spec.Synth.Seed = uint64(i)
		id := fmt.Sprintf("job-%06d", i)
		rec := JobRecord{ID: id, Spec: spec, Key: digest, State: StateQueued, Created: now, Updated: now}
		if err := st.JournalSubmit(rec); err != nil {
			b.Fatal(err)
		}
		if err := st.JournalState(id, StateDone, "", digest, now); err != nil {
			b.Fatal(err)
		}
		return id
	}
	b.Run("append", func(b *testing.B) {
		st := open(b)
		id := admit(b, st, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.JournalState(id, StateDone, "", digest, now); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compact-4096", func(b *testing.B) {
		st := open(b)
		for i := 1; i <= 4096; i++ {
			admit(b, st, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.mu.Lock()
			st.compactLocked()
			st.mu.Unlock()
		}
		b.StopTimer()
		if st.JournalErrors() != 0 {
			b.Fatal("a compaction failed")
		}
		snap, err := os.Stat(filepath.Join(st.o.Dir, "snapshot"))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(snap.Size()), "snapshot-B/op")
	})
}
