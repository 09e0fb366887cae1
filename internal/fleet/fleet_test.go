package fleet

import (
	"math"
	"testing"

	"mdtask/internal/engine"
	"mdtask/internal/hausdorff"
	"mdtask/internal/leaflet"
	"mdtask/internal/linalg"
	"mdtask/internal/psa"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

func testEnsemble(n, atoms, frames int, seed uint64) traj.Ensemble {
	ens := make(traj.Ensemble, n)
	for i := range ens {
		ens[i] = synth.Walk("t", atoms, frames, seed, uint64(i))
	}
	return ens
}

func TestPackFloatsRoundTrip(t *testing.T) {
	vals := []float64{0, -0, 1.5, -2.75, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, 1e-300, math.Pi}
	got, err := UnpackFloats(PackFloats(vals))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("got %d values, want %d", len(got), len(vals))
	}
	for i := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Errorf("value %d: %x != %x", i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
		}
	}
	if _, err := UnpackFloats("!!!"); err == nil {
		t.Error("invalid base64 accepted")
	}
	if _, err := UnpackFloats("AAAA"); err == nil {
		t.Error("non-multiple-of-8 payload accepted")
	}
}

func TestEnsembleCodecRoundTrip(t *testing.T) {
	ens := testEnsemble(3, 5, 4, 42)
	raw, err := EncodeEnsemble(ens)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEnsemble(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ens) {
		t.Fatalf("got %d trajectories, want %d", len(got), len(ens))
	}
	for i, tr := range ens {
		g := got[i]
		if g.NAtoms != tr.NAtoms || g.NFrames() != tr.NFrames() {
			t.Fatalf("trajectory %d shape mismatch", i)
		}
		for f := range tr.Frames {
			for a, p := range tr.Frames[f].Coords {
				if g.Frames[f].Coords[a] != p {
					t.Fatalf("trajectory %d frame %d atom %d: coordinates differ", i, f, a)
				}
			}
		}
	}
	if _, err := DecodeEnsemble(raw[:len(raw)-3]); err == nil {
		t.Error("truncated ensemble payload accepted")
	}
	if _, err := DecodeEnsemble([]byte{'L', 0, 0, 0, 0}); err == nil {
		t.Error("leaflet payload accepted as ensemble")
	}
}

func TestCoordsCodecRoundTrip(t *testing.T) {
	coords := []linalg.Vec3{{0, -1.5, 2}, {math.Pi, 1e-12, -3e7}}
	got, err := DecodeCoords(EncodeCoords(coords))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(coords) {
		t.Fatalf("got %d coords, want %d", len(got), len(coords))
	}
	for i := range coords {
		if got[i] != coords[i] {
			t.Errorf("coord %d: %v != %v", i, got[i], coords[i])
		}
	}
	if _, err := DecodeCoords(EncodeCoords(coords)[:10]); err == nil {
		t.Error("truncated coords payload accepted")
	}
}

// TestFleetPSAMatchesSerial checks the fleet engine assembles matrices
// bit-identical to the serial reference over the full wire protocol,
// across kernel methods, both schedules, and several ensembles.
func TestFleetPSAMatchesSerial(t *testing.T) {
	lf, err := StartLocal(3, LocalOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	for _, seed := range []uint64{7, 11, 99} {
		ens := testEnsemble(4, 6, 5, seed)
		for _, method := range hausdorff.Methods {
			for _, sym := range []bool{true, false} {
				opts := psa.Opts{Symmetric: sym, Method: method}
				want, err := psa.SerialRefs(traj.RefsOf(ens), opts)
				if err != nil {
					t.Fatal(err)
				}
				job, err := lf.C.SubmitPSARefs(traj.RefsOf(ens), 2, opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := job.Wait(nil); err != nil {
					t.Fatalf("seed=%d %v sym=%v: %v", seed, method, sym, err)
				}
				got := job.Matrix()
				lf.C.Drop(job)
				if got.N != want.N {
					t.Fatalf("N = %d, want %d", got.N, want.N)
				}
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("seed=%d %v sym=%v: matrix differs from serial at %d", seed, method, sym, i)
					}
				}
			}
		}
	}
}

// TestFleetPSAMetrics checks the coordinator-side accounting: one task
// per block, one stage, and the kernel counter sum invariant (every
// scheduled frame pair lands in exactly one bucket).
func TestFleetPSAMetrics(t *testing.T) {
	lf, err := StartLocal(2, LocalOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	ens := testEnsemble(4, 6, 5, 3)
	var m engine.Metrics
	job, err := lf.C.SubmitPSARefs(traj.RefsOf(ens), 2, psa.Opts{Symmetric: true, Method: hausdorff.Pruned}, &m)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(nil); err != nil {
		t.Fatal(err)
	}
	defer lf.C.Drop(job)
	snap := m.Snapshot()
	blocks, _ := psa.Partition(len(ens), 2, true)
	if snap.Tasks != int64(len(blocks)) {
		t.Errorf("tasks = %d, want %d", snap.Tasks, len(blocks))
	}
	if snap.Stages != 1 {
		t.Errorf("stages = %d, want 1", snap.Stages)
	}
	// Symmetric schedule: 6 unordered trajectory pairs, each scanning
	// 2·F·F directed frame pairs.
	wantPairs := int64(6 * 2 * 5 * 5)
	if got := snap.PairsEvaluated + snap.PairsPruned + snap.PairsAbandoned; got != wantPairs {
		t.Errorf("counter sum = %d, want %d", got, wantPairs)
	}
}

// TestFleetLeafletMatchesSerial checks the fleet engine partitions
// atoms identically to the serial reference with both edge kernels.
func TestFleetLeafletMatchesSerial(t *testing.T) {
	lf, err := StartLocal(3, LocalOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	coords := synth.Bilayer(800, 21).Coords
	cutoff := synth.BilayerCutoff
	want := leaflet.Serial(coords, cutoff)
	if len(want.Components) != 2 {
		t.Fatalf("reference found %d components, want 2", len(want.Components))
	}
	for _, tree := range []bool{false, true} {
		job, err := lf.C.SubmitLeaflet(coords, cutoff, 16, tree, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(nil); err != nil {
			t.Fatalf("tree=%v: %v", tree, err)
		}
		got := job.Leaflet()
		lf.C.Drop(job)
		if !leaflet.Equal(got, want) {
			t.Fatalf("tree=%v: assignment differs from serial", tree)
		}
		if got.Stats.Edges != want.Stats.Edges {
			t.Errorf("tree=%v: edges = %d, want %d", tree, got.Stats.Edges, want.Stats.Edges)
		}
		// Only the plan's live tiles are leased.
		if live := len(leaflet.LiveBlocks(coords, cutoff, 16)); got.Stats.Tasks != live || live >= len(leaflet.Blocks(len(coords), 16)) {
			t.Errorf("tree=%v: tasks = %d, live tiles %d of %d", tree, got.Stats.Tasks, live, len(leaflet.Blocks(len(coords), 16)))
		}
	}
}

// TestFleetSubmitValidation checks bad submissions fail fast.
func TestFleetSubmitValidation(t *testing.T) {
	c := NewCoordinator(LocalOptions())
	defer c.Close()
	if _, err := c.SubmitPSARefs(traj.RefsOf(testEnsemble(4, 4, 3, 1)), 3, psa.Opts{}, nil); err == nil {
		t.Error("non-divisor group size accepted")
	}
	if _, err := c.SubmitLeaflet(nil, 1, 4, false, nil); err == nil {
		t.Error("empty coordinate set accepted")
	}
	if _, err := c.SubmitLeaflet([]linalg.Vec3{{0, 0, 0}}, -1, 4, false, nil); err == nil {
		t.Error("negative cutoff accepted")
	}
	c.Close()
	if _, err := c.SubmitPSARefs(traj.RefsOf(testEnsemble(2, 4, 3, 1)), 1, psa.Opts{}, nil); err != ErrClosed {
		t.Errorf("submit after close: got %v, want ErrClosed", err)
	}
}

// Worker ids are unique across coordinator incarnations. Sequence
// numbers restart with the process: without the incarnation tag, a
// worker that outlived a coordinator crash finds its old id re-issued
// to whichever peer re-registered first, heartbeats successfully under
// it and never re-registers — two workers sharing one identity, the
// reason `make smoke-crash` waited in vain for its second worker.
func TestWorkerIDsUniqueAcrossCoordinatorRestarts(t *testing.T) {
	old := NewCoordinator(Options{})
	orphan := old.register(RegisterRequest{Name: "w1"}).ID
	old.Close()

	restarted := NewCoordinator(Options{})
	defer restarted.Close()
	peer := restarted.register(RegisterRequest{Name: "w2"}).ID
	if peer == orphan {
		t.Fatalf("restarted coordinator re-issued worker id %s", orphan)
	}
	if restarted.heartbeat(orphan) {
		t.Fatalf("restarted coordinator accepted a heartbeat under the previous incarnation's id %s", orphan)
	}
	if got := restarted.Stats().Workers; got != 1 {
		t.Fatalf("restarted coordinator tracks %d workers, want 1", got)
	}
}
