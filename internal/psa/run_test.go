package psa

import (
	"testing"
	"time"

	"mdtask/internal/engine"
	"mdtask/internal/hausdorff"
	"mdtask/internal/pilot"
	"mdtask/internal/traj"
)

// testPilot brings up a fast-polling pilot for driver tests.
func testPilot(t *testing.T) *pilot.Pilot {
	t.Helper()
	cfg := pilot.Config{
		DBLatency:          50 * time.Microsecond,
		AgentPollInterval:  500 * time.Microsecond,
		ClientPollInterval: 500 * time.Microsecond,
	}
	p, err := pilot.NewPilot(4, t.TempDir(), pilot.NewDB(cfg.DBLatency), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	return p
}

// The cross-engine value contract — every engine × method × schedule ×
// residency mode bit-identical to the serial reference — is locked down
// by internal/engine/conformtest, which runs through the jobs registry
// (the dispatch surface the CLIs and the server use) and so covers Run
// on every executor plus pilot and fleet. The tests below keep the
// driver-local invariants: staging economics, input validation, and the
// pilot wire codecs.

// The symmetric pilot schedule must not stage blobs for mirror blocks:
// total staged inputs drop from N²/n1 (every block stages its rows and
// columns) to roughly half.
func TestPilotSymmetricStagesFewerBlobs(t *testing.T) {
	const n, n1 = 6, 2
	staged := func(sym bool) int {
		blocks, err := Partition(n, n1, sym)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, b := range blocks {
			total += len(b.TrajIndices())
		}
		return total
	}
	full, sym := staged(false), staged(true)
	if sym >= full {
		t.Fatalf("symmetric schedule stages %d blobs, full stages %d", sym, full)
	}
	// k=3: full = 9 blocks × 4 each minus diagonal overlap = 9×4−3×2;
	// symmetric = 6 blocks, diagonal ones staging their rows once.
	if want := 3*2 + 3*4; sym != want {
		t.Fatalf("symmetric schedule stages %d blobs, want %d", sym, want)
	}
}

func TestRunRejectsBadGroupSize(t *testing.T) {
	refs := traj.RefsOf(testEnsemble(4, 5, 3))
	for _, sym := range []bool{false, true} {
		opts := Opts{Symmetric: sym, Method: hausdorff.Naive}
		if _, err := Run(engine.NewSerial(nil), refs, 3, opts); err == nil {
			t.Errorf("Run accepted non-divisor group size (sym=%v)", sym)
		}
		if _, err := RunPilotRefs(testPilot(t), refs, 3, opts); err == nil {
			t.Errorf("RunPilotRefs accepted non-divisor group size (sym=%v)", sym)
		}
	}
}

// Run over the serial executor is Partition → ComputeBlockRefs →
// Assemble and nothing else: bit-identical to the blockless reference,
// one task per block, kernel counters in the executor's sink. (The
// rdd, dask and mpi executors run the same function through the
// conformance matrix in internal/engine/conformtest.)
func TestRunMatchesSerialRefs(t *testing.T) {
	refs := traj.RefsOf(testEnsemble(6, 5, 4))
	for _, sym := range []bool{false, true} {
		opts := Opts{Symmetric: sym, Method: hausdorff.Pruned}
		want, err := SerialRefs(refs, opts)
		if err != nil {
			t.Fatal(err)
		}
		ex := engine.NewSerial(nil)
		got, err := Run(ex, refs, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !matricesEqual(got, want, 0) {
			t.Fatalf("sym=%v: Run differs from SerialRefs", sym)
		}
		blocks, _ := Partition(len(refs), 2, sym)
		snap := ex.Metrics().Snapshot()
		if snap.Tasks != int64(len(blocks)) || snap.PairsEvaluated == 0 {
			t.Fatalf("sym=%v: tasks=%d (want %d) evaluated=%d", sym, snap.Tasks, len(blocks), snap.PairsEvaluated)
		}
	}
}

func TestFloatCodec(t *testing.T) {
	vals := []float64{0, 1.5, -2.25, 1e300}
	got, err := decodeFloats(encodeFloats(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("codec mismatch at %d: %v vs %v", i, got[i], vals[i])
		}
	}
	if _, err := decodeFloats([]byte{1, 2, 3}); err == nil {
		t.Error("odd-length payload accepted")
	}
}
