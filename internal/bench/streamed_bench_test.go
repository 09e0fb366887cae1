package bench

import (
	"strconv"
	"testing"

	"mdtask/internal/engine"
	"mdtask/internal/hausdorff"
	"mdtask/internal/psa"
	"mdtask/internal/traj"
)

// The BenchmarkPSAStreamed family measures the out-of-core window
// kernel against the fully-resident baseline, and *asserts the memory
// bound it exists for*: every iteration checks that the engine's peak
// frame residency never exceeded 2 × the window (one window per side
// of a comparison). The full-ensemble baseline runs the untouched
// in-memory path. Run with:
//
//	go test -bench PSAStreamed ./internal/bench
const benchStreamTrajs = 6

func benchStreamEnsemble() traj.Ensemble {
	ens := benchPSAEnsemble()
	return ens[:benchStreamTrajs]
}

// benchPSAStreamed times the streamed serial kernel at one window size,
// asserting the ≤ 2×window residency bound, and reports the window
// read amplification (streamed bytes per iteration over the raw
// coordinate payload).
func benchPSAStreamed(b *testing.B, method hausdorff.Method, window int) {
	b.Helper()
	ens := benchStreamEnsemble()
	refs := traj.RefsOf(ens)
	b.ResetTimer()
	var lastPeak, lastBytes int64
	for i := 0; i < b.N; i++ {
		sink := &engine.Metrics{}
		if _, err := psa.SerialRefs(refs, psa.Opts{
			Symmetric: true, Method: method,
			MaxResidentFrames: window, Env: engine.Env{Metrics: sink},
		}); err != nil {
			b.Fatal(err)
		}
		s := sink.Snapshot()
		if s.PeakResidentFrames > int64(2*window) {
			b.Fatalf("window=%d: peak resident %d frames exceeds the 2×window bound %d",
				window, s.PeakResidentFrames, 2*window)
		}
		if s.BytesStreamed <= 0 {
			b.Fatal("streamed run accounted no bytes")
		}
		lastPeak, lastBytes = s.PeakResidentFrames, s.BytesStreamed
	}
	b.ReportMetric(float64(lastPeak), "peak-frames")
	b.ReportMetric(float64(lastBytes)/float64(traj.RefsOf(ens).Bytes()), "read-amplification")
}

func BenchmarkPSAStreamed(b *testing.B) {
	for _, method := range []hausdorff.Method{hausdorff.Naive, hausdorff.Pruned} {
		for _, window := range []int{4, benchPSAFrames} {
			method, window := method, window
			b.Run(method.String()+"/w"+strconv.Itoa(window), func(b *testing.B) {
				benchPSAStreamed(b, method, window)
			})
		}
	}
	// Baseline: the fully-resident path on the same ensemble, untouched
	// by the streaming changes.
	b.Run("in-memory-baseline", func(b *testing.B) {
		ens := benchStreamEnsemble()
		opts := psa.Opts{Symmetric: true, Method: hausdorff.Naive}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := psa.SerialRefs(traj.RefsOf(ens), opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestStreamedBenchBitIdentical pins the benchmark configuration: the
// streamed run used for timing produces exactly the in-memory matrix.
func TestStreamedBenchBitIdentical(t *testing.T) {
	ens := benchStreamEnsemble()
	want, err := psa.SerialRefs(traj.RefsOf(ens), psa.Opts{Symmetric: true, Method: hausdorff.Naive})
	if err != nil {
		t.Fatal(err)
	}
	got, err := psa.SerialRefs(traj.RefsOf(ens), psa.Opts{
		Symmetric: true, Method: hausdorff.Pruned, MaxResidentFrames: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("streamed bench matrix differs at %d", i)
		}
	}
}
