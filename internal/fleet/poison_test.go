package fleet

import (
	"encoding/json"
	"net/http"
	"slices"
	"testing"
	"time"

	"mdtask/internal/blockstore"
	"mdtask/internal/engine"
	"mdtask/internal/graph"
	"mdtask/internal/leaflet"
	"mdtask/internal/linalg"
	"mdtask/internal/obs"
	"mdtask/internal/psa"
	"mdtask/internal/stage"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// A Leaflet unit's partial components feed the job's union-find
// (leaflet.FromPartials), which indexes by atom, and its edge count the
// job's Stats; the coordinator accepts only canonical components of the
// job's atoms. These payloads must therefore be refused before they
// fold: the first two once made every later dask/spark/mpi Leaflet job
// on the membrane panic in its merge (when tiles were cached), an
// out-of-range atom panics the union-find, the rest corrupt the job's
// counts.
var badLeafletPayloads = []struct{ name, payload, metrics string }{
	{"empty-component", `{"comps":[[]]}`, `{}`},
	{"unsorted", `{"comps":[[900,2]]}`, `{}`},
	{"duplicate-node", `{"comps":[[3,3]]}`, `{}`},
	{"overlapping", `{"comps":[[1,2],[2,3]]}`, `{}`},
	{"out-of-order", `{"comps":[[5,6],[1,2]]}`, `{}`},
	{"out-of-range", `{"comps":[[1,1024]]}`, `{}`},
	{"negative-atom", `{"comps":[[-1,2]]}`, `{}`},
	{"negative-edges", `{"comps":[[1,2]],"edges":-1}`, `{}`},
	{"negative-counter", `{"comps":[[1,2]],"edges":1}`, `{"pairs_evaluated":-1}`},
	{"negative-elapsed", `{"comps":[[1,2]],"edges":1}`, `{"compute_ns":-5}`},
}

// poisonAtoms and poisonTasks size the membrane and tiling of the
// poisoning tests: 1024 atoms, so atom 900 is in range.
const (
	poisonAtoms = 1024
	poisonTasks = 16
)

// TestMalformedLeafletPartialNotCached posts each bad payload as a
// worker would: every one is refused with 400 and its unit requeued,
// nothing folds into the job's sink or lands in the block store, and a
// healthy worker then completes the job to the serial reference.
func TestMalformedLeafletPartialNotCached(t *testing.T) {
	store := blockstore.New(64 << 20)
	c, url := startCoordinator(t, Options{
		LeaseTTL:     30 * time.Second,
		HeartbeatTTL: 30 * time.Second,
		SweepEvery:   20 * time.Millisecond,
		PollEvery:    5 * time.Millisecond,
		BlockStore:   store,
	})
	coords, cutoff := synth.Bilayer(poisonAtoms, 5).Coords, synth.BilayerCutoff
	var m engine.Metrics
	plan, err := stage.Leaflet(coords, cutoff, poisonTasks, true)
	if err != nil {
		t.Fatal(err)
	}
	job := submitPlan(t, c, plan, &m)
	defer c.Drop(job)
	before := m.Snapshot()
	pc := newProtoClient(t, url)
	l := pc.lease()
	if l == nil {
		t.Fatal("no lease granted")
	}
	for _, p := range badLeafletPayloads {
		res := UnitResult{Lease: l.Lease, Job: l.Job, Unit: l.Unit, Payload: []byte(p.payload)}
		if err := json.Unmarshal([]byte(p.metrics), &res.Metrics); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if code := pc.post(res); code != http.StatusBadRequest {
			t.Fatalf("%s: post answered %d, want 400", p.name, code)
		}
		if store.Len() != 0 || m.Snapshot() != before {
			t.Fatalf("%s: the refused partial was recorded", p.name)
		}
		next := pc.lease()
		if next == nil || next.Unit != l.Unit {
			t.Fatalf("%s: unit %d not requeued: %+v", p.name, l.Unit, next)
		}
		l = next
	}
	// The unit's genuine partial is then accepted, and a healthy worker
	// runs the rest.
	payload, err := stage.Exec(plan.Units()[l.Unit], stage.Env{Fetch: plan.Blob})
	if err != nil {
		t.Fatal(err)
	}
	if code := pc.post(UnitResult{Lease: l.Lease, Job: l.Job, Unit: l.Unit, Payload: payload}); code != http.StatusOK {
		t.Fatalf("genuine partial: post answered %d, want 200", code)
	}
	good, err := StartWorker(WorkerOptions{Coordinator: url, Name: "good"})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if err := job.Wait(nil); err != nil {
		t.Fatal(err)
	}
	if got := job.Result().(*leaflet.Result); !slices.Equal(got.Labels, leaflet.Serial(coords, cutoff).Labels) {
		t.Fatal("job after the refused payloads differs from serial")
	}
	if store.Len() != 0 {
		t.Fatalf("the store holds %d entries after a Leaflet job", store.Len())
	}
}

// FuzzRecordLeafletResult throws arbitrary worker results — a payload
// and its metrics JSON — at the coordinator's record path for the first
// unit of a Leaflet job and of a PSA job, both kinds' decoders and
// checks. A refused result records nothing: no block reaches the store
// and nothing folds into the job's metrics. An accepted PSA block is
// cached under the unit's key, and an in-process job reading it back
// must still run to completion. An accepted Leaflet partial is folded
// (its metrics into the job's sink, its edges into the job's Stats),
// and the job assembled from it and the other units' genuine partials
// must have canonical labels: whatever a worker sends, the job's merge
// never sees a partial it cannot use. (A canonical but wrong result is
// accepted and yields wrong output; only recomputing the unit could
// tell.) The seeds are the Leaflet payloads that once poisoned the
// store, a PSA block of the wrong length and one of the right length.
func FuzzRecordLeafletResult(f *testing.F) {
	for _, p := range badLeafletPayloads {
		f.Add([]byte(p.payload), []byte(p.metrics))
	}
	f.Add([]byte(`{"comps":[[0,1,2],[7,9]],"edges":3}`), []byte(`{"tasks":1}`))
	f.Add([]byte(`{}`), []byte(`{}`))
	f.Add(linalg.AppendFloats(nil, []float64{1, 2}), []byte(`{}`))
	f.Add(linalg.AppendFloats(nil, []float64{0.5}), []byte(`{"tasks":1,"pairs_evaluated":40}`))
	coords, cutoff := synth.Bilayer(poisonAtoms, 5).Coords, synth.BilayerCutoff
	ens := testEnsemble(2, 3, 4, 1)
	f.Fuzz(func(t *testing.T, payload, metrics []byte) {
		var snap engine.Snapshot
		if json.Unmarshal(metrics, &snap) != nil {
			return
		}
		for _, kind := range []string{"leaflet", "psa"} {
			store := blockstore.New(64 << 20)
			c := NewCoordinator(Options{BlockStore: store})
			var plan stage.Plan
			var err error
			if kind == "leaflet" {
				plan, err = stage.Leaflet(coords, cutoff, poisonTasks, true)
			} else {
				plan, err = stage.PSA(traj.RefsOf(ens), 1, psa.Opts{Cache: store})
			}
			if err != nil {
				t.Fatal(err)
			}
			var m engine.Metrics
			job, err := c.Submit(plan, &m, obs.SpanContext{})
			if err != nil {
				t.Fatal(err)
			}
			w := c.register(RegisterRequest{}).ID
			l, err := c.lease(w)
			if err != nil || l == nil || l.Unit != 0 {
				t.Fatalf("%s: first lease %+v, %v", kind, l, err)
			}
			before := m.Snapshot()
			err = c.complete(w, UnitResult{Lease: l.Lease, Job: l.Job, Unit: l.Unit, Payload: payload, Metrics: snap})
			c.Close()
			if err != nil {
				if store.Len() != 0 || m.Snapshot() != before {
					t.Fatalf("%s: refused result recorded: %v", kind, err)
				}
				continue
			}
			if kind == "psa" {
				if _, ok := store.Get(job.run.Units()[0].Key); !ok {
					t.Fatal("psa: accepted result not cached")
				}
				if _, err := psa.Run(engine.NewSerial(nil), traj.RefsOf(ens), 1, psa.Opts{Cache: store}); err != nil {
					t.Fatalf("accepted PSA block broke an in-process job: %v", err)
				}
				continue
			}
			var folded engine.Metrics
			folded.Add(before)
			folded.Add(snap)
			if store.Len() != 0 || m.Snapshot() != folded.Snapshot() {
				t.Fatal("leaflet: accepted result not folded as sent, or stored")
			}
			// The coordinator is closed: record the other units' genuine
			// partials straight into the plan and assemble the job.
			var accepted leaflet.TilePartial
			if err := json.Unmarshal(payload, &accepted); err != nil {
				t.Fatal(err)
			}
			edges := accepted.Edges
			for i, u := range plan.Units()[1:] {
				out, err := stage.Exec(u, stage.Env{Fetch: plan.Blob})
				if err != nil {
					t.Fatal(err)
				}
				var tp leaflet.TilePartial
				if err := json.Unmarshal(out, &tp); err != nil {
					t.Fatal(err)
				}
				plan.Record(i+1, tp)
				edges += tp.Edges
			}
			got := plan.Assemble().(*leaflet.Result)
			if got.Stats.Edges != edges {
				t.Fatalf("leaflet: assembled %d edges, want %d with the accepted partial's", got.Stats.Edges, edges)
			}
			if err := graph.CheckLabels(got.Labels); err != nil {
				t.Fatalf("accepted payload: %v", err)
			}
		}
	})
}
