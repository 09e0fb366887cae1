package fleet

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"mdtask/internal/blockstore"
	"mdtask/internal/dask"
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

// A Leaflet unit's partial components are cached under the same tile
// key in-process runs read, and the in-process reduce requires them
// canonical. These payloads must therefore be refused before they reach
// the store: the first two made every later dask/spark/mpi Leaflet job
// on the membrane panic in its merge, the rest corrupt the job's counts.
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
// nothing lands in the block store under the tile's key, and an
// in-process job over the same membrane and store then matches the
// serial reference.
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
	job := submitLeaflet(t, c, coords, cutoff, poisonTasks, true)
	defer c.Drop(job)
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
		if _, ok := store.Get(job.run.Units()[l.Unit].Key); ok {
			t.Fatalf("%s: the refused partial was cached", p.name)
		}
		next := pc.lease()
		if next == nil || next.Unit != l.Unit {
			t.Fatalf("%s: unit %d not requeued: %+v", p.name, l.Unit, next)
		}
		l = next
	}
	pc.heartbeat()

	ex := dask.NewExecutor(dask.NewClient(2), nil)
	got, err := leaflet.Run(ex, leaflet.TreeSearch, coords, cutoff, poisonTasks,
		leaflet.WithBlockCache(store, leaflet.CoordsDigest(coords)))
	if err != nil {
		t.Fatal(err)
	}
	if !leaflet.Equal(got, leaflet.Serial(coords, cutoff)) {
		t.Fatal("in-process job after the refused payloads differs from serial")
	}
}

// FuzzRecordLeafletResult throws arbitrary worker results — a payload
// and its metrics JSON — at the coordinator's record path for the first
// unit of a Leaflet job and of a PSA job, both kinds' decoders and
// checks. A refused result records nothing: no block reaches the store
// and nothing folds into the job's metrics. An accepted one is cached
// under the unit's key, and an in-process job reading it back must
// still run to completion, with canonical labels for Leaflet: whatever
// a worker sends, the shared store never holds a value the in-process
// engines cannot use. (A canonical but wrong result is accepted and
// yields wrong output; only recomputing the unit could tell.) The seeds
// are the Leaflet payloads that once poisoned the store, a PSA block
// of the wrong length and one of the right length.
func FuzzRecordLeafletResult(f *testing.F) {
	for _, p := range badLeafletPayloads {
		f.Add([]byte(p.payload), []byte(p.metrics))
	}
	f.Add([]byte(`{"comps":[[0,1,2],[7,9]],"edges":3}`), []byte(`{"tasks":1}`))
	f.Add([]byte(`{}`), []byte(`{}`))
	f.Add(linalg.AppendFloats(nil, []float64{1, 2}), []byte(`{}`))
	f.Add(linalg.AppendFloats(nil, []float64{0.5}), []byte(`{"tasks":1,"pairs_evaluated":40}`))
	coords, cutoff := synth.Bilayer(poisonAtoms, 5).Coords, synth.BilayerCutoff
	digest := leaflet.CoordsDigest(coords)
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
				plan, err = stage.Leaflet(coords, cutoff, poisonTasks, true, digest)
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
			if _, ok := store.Get(job.run.Units()[0].Key); !ok {
				t.Fatalf("%s: accepted result not cached", kind)
			}
			if kind == "psa" {
				if _, err := psa.Run(engine.NewSerial(nil), traj.RefsOf(ens), 1, psa.Opts{Cache: store}); err != nil {
					t.Fatalf("accepted PSA block broke an in-process job: %v", err)
				}
				continue
			}
			ex := dask.NewExecutor(dask.NewClient(2), nil)
			got, err := leaflet.Run(ex, leaflet.TreeSearch, coords, cutoff, poisonTasks,
				leaflet.WithBlockCache(store, digest))
			if err != nil {
				t.Fatalf("accepted payload broke an in-process job: %v", err)
			}
			if err := graph.CheckLabels(got.Labels); err != nil {
				t.Fatalf("accepted payload: %v", err)
			}
		}
	})
}
