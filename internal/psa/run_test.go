package psa

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"mdtask/internal/blockstore"
	"mdtask/internal/engine"
	"mdtask/internal/hausdorff"
	"mdtask/internal/linalg"
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
// checks on what pilot units write back.

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

// A pilot unit's metrics file is bytes on disk the client cannot
// trust. One that is truncated or carries a negative count fails the
// job, and nothing of the run reaches the block store or the metrics
// sink — not even the well-formed units read before it.
func TestPilotRejectsBadUnitMetrics(t *testing.T) {
	blocks, err := Partition(4, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	missing := []int{0, 1, 2}
	keys := []string{"b0", "b1", "b2"}
	p := testPilot(t)
	for name, bad := range map[string]string{
		"truncated": `{"tasks":1,"pairs_evalu`,
		"negative":  `{"pairs_evaluated":-1}`,
	} {
		descs := make([]pilot.UnitDescription, len(missing))
		for k, bi := range missing {
			vals := linalg.AppendFloats(nil, make([]float64, blocks[bi].TaskPairs(true)))
			metrics := []byte(`{"pairs_evaluated":4}`)
			if k == len(missing)-1 {
				metrics = []byte(bad)
			}
			descs[k] = pilot.UnitDescription{
				OutputFiles: []string{"distances.bin", "metrics.json"},
				Fn: func(sandbox string) error {
					if err := os.WriteFile(filepath.Join(sandbox, "distances.bin"), vals, 0o644); err != nil {
						return err
					}
					return os.WriteFile(filepath.Join(sandbox, "metrics.json"), metrics, 0o644)
				},
			}
		}
		units := p.Submit(descs)
		if err := p.Wait(units); err != nil {
			t.Fatal(err)
		}
		var m engine.Metrics
		store := blockstore.New(1 << 20)
		opts := Opts{Symmetric: true, Metrics: &m, Cache: store}
		if err := collect(units, blocks, missing, keys, make([]BlockResult, len(blocks)), opts); err == nil {
			t.Fatalf("%s: metrics file %q accepted", name, bad)
		}
		if n := store.Len(); n != 0 {
			t.Errorf("%s: %d blocks recorded in the store", name, n)
		}
		if s := m.Snapshot(); s != (engine.Snapshot{}) {
			t.Errorf("%s: metrics folded: %+v", name, s)
		}
	}
}
