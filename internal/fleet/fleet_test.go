package fleet

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"mdtask/internal/engine"
	"mdtask/internal/hausdorff"
	"mdtask/internal/leaflet"
	"mdtask/internal/linalg"
	"mdtask/internal/obs"
	"mdtask/internal/psa"
	"mdtask/internal/stage"
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

// submitPlan submits a staged plan, accounting into m.
func submitPlan(t testing.TB, c *Coordinator, plan stage.Plan, m *engine.Metrics) *Job {
	t.Helper()
	job, err := c.Submit(plan, m, obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// submitPSA submits a PSA job as the jobs layer does: the staged plan
// of stage.PSA over refs with block edge n1.
func submitPSA(t testing.TB, c *Coordinator, refs traj.RefEnsemble, n1 int, opts psa.Opts, m *engine.Metrics) *Job {
	t.Helper()
	plan, err := stage.PSA(refs, n1, opts)
	if err != nil {
		t.Fatal(err)
	}
	return submitPlan(t, c, plan, m)
}

// requeuesOf reads how many of j's units were revoked and
// rescheduled: the count its fleet.job span reports.
func requeuesOf(j *Job) int64 {
	j.c.mu.Lock()
	defer j.c.mu.Unlock()
	return j.requeues
}

// submitLeaflet submits a Leaflet job over coords, one unit per tile
// of its plan for four workers.
func submitLeaflet(t testing.TB, c *Coordinator, coords []linalg.Vec3, cutoff float64, tasks int, tree bool) *Job {
	t.Helper()
	plan, err := stage.Leaflet(coords, cutoff, tasks, 4, tree)
	if err != nil {
		t.Fatal(err)
	}
	return submitPlan(t, c, plan, nil)
}

func matrixOf(j *Job) *psa.Matrix { return j.Result().(*psa.Matrix) }

// A PSA block's values cross the wire as a unit result's payload:
// little-endian float64 bit patterns, base64 inside the JSON body, so
// every value survives bit for bit.
func TestPackFloatsRoundTrip(t *testing.T) {
	vals := []float64{0, -0, 1.5, -2.75, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, 1e-300, math.Pi}
	body, err := json.Marshal(UnitResult{Payload: linalg.AppendFloats(nil, vals)})
	if err != nil {
		t.Fatal(err)
	}
	var res UnitResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	got, err := linalg.DecodeFloats(res.Payload)
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
	if err := json.Unmarshal([]byte(`{"payload":"!!!"}`), &res); err == nil {
		t.Error("invalid base64 accepted")
	}
	if err := json.Unmarshal([]byte(`{"payload":"AAAA"}`), &res); err != nil {
		t.Fatal(err)
	}
	if _, err := linalg.DecodeFloats(res.Payload); err == nil {
		t.Error("non-multiple-of-8 payload accepted")
	}
}

// Every input a unit reads is one blob the job's plan encodes when a
// worker asks. inputJobs submits one job of each kind: a PSA job over
// ens, which serves each trajectory as an MDT blob, and a Leaflet job
// over coords, which serves each coordinate chunk as packed float64s.
func inputJobs(t *testing.T, ens traj.Ensemble, coords []linalg.Vec3) (c *Coordinator, psaJob, lfJob *Job) {
	t.Helper()
	c = NewCoordinator(LocalOptions())
	t.Cleanup(c.Close)
	psaJob = submitPSA(t, c, traj.RefsOf(ens), 1, psa.Opts{Symmetric: true}, nil)
	lfJob = submitLeaflet(t, c, coords, 1, 1, false)
	return c, psaJob, lfJob
}

// A PSA job's trajectory blobs decode to the ensemble bit for bit, one
// blob per trajectory. A truncated blob does not decode, and a Leaflet
// job refuses a trajectory's blob name.
func TestEnsembleCodecRoundTrip(t *testing.T) {
	ens := testEnsemble(3, 5, 4, 42)
	c, psaJob, lfJob := inputJobs(t, ens, []linalg.Vec3{{0, 1, 2}})
	seen := make(map[string]bool)
	for _, u := range psaJob.run.Units() {
		for _, name := range u.Inputs {
			if seen[name] {
				continue
			}
			seen[name] = true
			blob, err := c.blobOf(psaJob.id, name)
			if err != nil {
				t.Fatal(err)
			}
			got, err := traj.DecodeMDT(blob)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.ContainsFunc(ens, func(tr *traj.Trajectory) bool {
				return sameEnsembleBits(traj.Ensemble{got}, traj.Ensemble{tr})
			}) {
				t.Fatalf("blob %s decodes to no trajectory of the ensemble", name)
			}
			if _, err := traj.DecodeMDT(blob[:len(blob)-3]); err == nil {
				t.Error("truncated trajectory blob accepted")
			}
		}
	}
	if len(seen) != len(ens) {
		t.Fatalf("the job's units read %d blobs, want one per trajectory (%d)", len(seen), len(ens))
	}
	if _, err := c.blobOf(lfJob.id, psaJob.run.Units()[0].Inputs[0]); err == nil {
		t.Error("Leaflet job served a trajectory")
	}
}

// A Leaflet job's coordinate chunk decodes to the coordinates bit for
// bit. A truncated blob does not decode, and a PSA job refuses a
// coordinate chunk's blob name.
func TestCoordsCodecRoundTrip(t *testing.T) {
	coords := []linalg.Vec3{{0, -1.5, 2}, {math.Pi, 1e-12, -3e7}}
	c, psaJob, lfJob := inputJobs(t, testEnsemble(2, 3, 2, 7), coords)
	name := lfJob.run.Units()[0].Inputs[0]
	blob, err := c.blobOf(lfJob.id, name)
	if err != nil {
		t.Fatal(err)
	}
	got, err := linalg.DecodeVec3s(blob)
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
	if _, err := linalg.DecodeVec3s(blob[:10]); err == nil {
		t.Error("truncated coordinate blob accepted")
	}
	if _, err := c.blobOf(psaJob.id, name); err == nil {
		t.Error("PSA job served a coordinate chunk")
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
				job := submitPSA(t, lf.C, traj.RefsOf(ens), 2, opts, nil)
				if err := job.Wait(nil); err != nil {
					t.Fatalf("seed=%d %v sym=%v: %v", seed, method, sym, err)
				}
				got := matrixOf(job)
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
	job := submitPSA(t, lf.C, traj.RefsOf(ens), 2, psa.Opts{Symmetric: true, Method: hausdorff.Pruned}, &m)
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
		job := submitLeaflet(t, lf.C, coords, cutoff, 16, tree)
		if err := job.Wait(nil); err != nil {
			t.Fatalf("tree=%v: %v", tree, err)
		}
		got := job.Result().(*leaflet.Result)
		lf.C.Drop(job)
		if !slices.Equal(got.Labels, want.Labels) {
			t.Fatalf("tree=%v: assignment differs from serial", tree)
		}
		if got.Stats.Edges != want.Stats.Edges {
			t.Errorf("tree=%v: edges = %d, want %d", tree, got.Stats.Edges, want.Stats.Edges)
		}
		// Only the plan's tiles are leased.
		if live := len(leaflet.Tiles(coords, cutoff, 16, 4, tree)); got.Stats.Tasks != live || live >= len(leaflet.Blocks(len(coords), 16)) {
			t.Errorf("tree=%v: tasks = %d, live tiles %d of %d", tree, got.Stats.Tasks, live, len(leaflet.Blocks(len(coords), 16)))
		}
	}
}

// TestFleetSubmitValidation checks bad submissions fail fast: the
// plans refuse bad geometry, a closed coordinator refuses any plan.
func TestFleetSubmitValidation(t *testing.T) {
	c := NewCoordinator(LocalOptions())
	defer c.Close()
	if _, err := stage.PSA(traj.RefsOf(testEnsemble(4, 4, 3, 1)), 3, psa.Opts{}); err == nil {
		t.Error("non-divisor group size accepted")
	}
	if _, err := stage.Leaflet(nil, 1, 4, 4, false); err == nil {
		t.Error("empty coordinate set accepted")
	}
	if _, err := stage.Leaflet([]linalg.Vec3{{0, 0, 0}}, -1, 4, 4, false); err == nil {
		t.Error("negative cutoff accepted")
	}
	c.Close()
	plan, err := stage.PSA(traj.RefsOf(testEnsemble(2, 4, 3, 1)), 1, psa.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(plan, nil, obs.SpanContext{}); err != ErrClosed {
		t.Errorf("submit after close: got %v, want ErrClosed", err)
	}
}

// Worker, job and lease ids are unique across coordinator incarnations.
// Sequence numbers restart with the process: without the incarnation
// tag, a worker that outlived a coordinator crash finds its old id
// re-issued to whichever peer re-registered first, heartbeats
// successfully under it and never re-registers — two workers sharing
// one identity, the reason `make smoke-crash` waited in vain for its
// second worker — and a result it computed for the old incarnation
// names the same lease, job and unit as a live lease of the new one.
func TestWorkerIDsUniqueAcrossCoordinatorRestarts(t *testing.T) {
	ens := testEnsemble(2, 4, 3, 1)
	old := NewCoordinator(Options{})
	orphan := old.register(RegisterRequest{Name: "w1"}).ID
	oldJob := submitPSA(t, old, traj.RefsOf(ens), 1, psa.Opts{Symmetric: true}, nil)
	stale, err := old.lease(orphan)
	if err != nil || stale == nil {
		t.Fatalf("old incarnation granted no lease: %v", err)
	}
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

	// The orphan re-registers and is granted the same unit of the same
	// job again, the first job and lease of the new incarnation.
	again := restarted.register(RegisterRequest{Name: "w1"}).ID
	job := submitPSA(t, restarted, traj.RefsOf(ens), 1, psa.Opts{Symmetric: true}, nil)
	defer restarted.Drop(job)
	live, err := restarted.lease(again)
	if err != nil || live == nil {
		t.Fatalf("restarted coordinator granted no lease: %v", err)
	}
	if job.id == oldJob.id || live.Lease == stale.Lease {
		t.Fatalf("ids repeat across incarnations: job %s, lease %s", job.id, live.Lease)
	}
	if live.Unit != stale.Unit {
		t.Fatalf("live lease is for unit %d, the stale one for %d", live.Unit, stale.Unit)
	}
	// Its old-incarnation result, posted under its new identity, is stale.
	ts := httptest.NewServer(restarted.Handler())
	defer ts.Close()
	pc := &protoClient{t: t, base: ts.URL, id: again}
	if code := pc.post(UnitResult{Lease: stale.Lease, Job: stale.Job, Unit: stale.Unit}); code != http.StatusConflict {
		t.Fatalf("old-incarnation result answered %d, want 409", code)
	}
}
