package fleet

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"mdtask/internal/blockstore"
	"mdtask/internal/dask"
	"mdtask/internal/graph"
	"mdtask/internal/leaflet"
	"mdtask/internal/synth"
)

// A Leaflet unit's partial components are cached under the same tile
// key in-process runs read, and the in-process reduce requires them
// canonical. These payloads must therefore be refused before they reach
// the store: the first two made every later dask/spark/mpi Leaflet job
// on the membrane panic in its merge, the rest corrupt the job's counts.
var badLeafletPayloads = []struct{ name, body string }{
	{"empty-component", `{"comps":[[]]}`},
	{"unsorted", `{"comps":[[900,2]]}`},
	{"duplicate-node", `{"comps":[[3,3]]}`},
	{"overlapping", `{"comps":[[1,2],[2,3]]}`},
	{"out-of-order", `{"comps":[[5,6],[1,2]]}`},
	{"out-of-range", `{"comps":[[1,1024]]}`},
	{"negative-atom", `{"comps":[[-1,2]]}`},
	{"negative-edges", `{"comps":[[1,2]],"edges":-1}`},
	{"negative-counter", `{"comps":[[1,2]],"edges":1,"counters":{"evaluated":-1}}`},
	{"negative-elapsed", `{"comps":[[1,2]],"edges":1,"elapsed_ns":-5}`},
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
	job, err := c.SubmitLeaflet(coords, cutoff, poisonTasks, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Drop(job)
	pc := newProtoClient(t, url)
	l := pc.lease()
	if l == nil {
		t.Fatal("no lease granted")
	}
	for _, p := range badLeafletPayloads {
		var res UnitResult
		if err := json.Unmarshal([]byte(p.body), &res); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		res.Lease, res.Job, res.Unit = l.Lease, l.Job, l.Unit
		if code := pc.post(res); code != http.StatusBadRequest {
			t.Fatalf("%s: post answered %d, want 400", p.name, code)
		}
		if _, ok := store.Get(job.keys[l.Unit]); ok {
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

// FuzzRecordLeafletResult throws arbitrary worker payloads at
// recordLocked. A refused payload records nothing. An accepted one is
// cached under its tile's key, as the coordinator would cache it, and an
// in-process job reading it back must still run to completion with
// canonical labels: whatever a worker sends, the shared store never
// holds a partial the in-process reduce cannot merge. (A canonical but
// wrong partial is accepted and yields wrong labels; only recomputing
// the tile could tell.)
func FuzzRecordLeafletResult(f *testing.F) {
	for _, p := range badLeafletPayloads {
		f.Add([]byte(p.body))
	}
	f.Add([]byte(`{"comps":[[0,1,2],[7,9]],"edges":3}`))
	f.Add([]byte(`{}`))
	coords, cutoff := synth.Bilayer(poisonAtoms, 5).Coords, synth.BilayerCutoff
	digest := leaflet.CoordsDigest(coords)
	tile := leaflet.LiveBlocks(coords, cutoff, poisonTasks)[0]
	key := leaflet.TileKey(digest, cutoff, true, tile.RLo, tile.RHi, tile.CLo, tile.CHi)
	f.Fuzz(func(t *testing.T, body []byte) {
		var res UnitResult
		if json.Unmarshal(body, &res) != nil {
			return
		}
		j := &Job{analysis: AnalysisLeaflet, nAtoms: poisonAtoms, parts: make([][]graph.Component, 1)}
		if err := j.recordLocked(0, res); err != nil {
			if j.parts[0] != nil || j.edges != 0 || j.shuffle != 0 {
				t.Fatalf("refused payload recorded: %v", err)
			}
			return
		}
		store := blockstore.New(64 << 20)
		tp := leaflet.TilePartial{Comps: j.parts[0], Edges: j.edges}
		store.Put(key, tp, tp.SizeBytes())
		ex := dask.NewExecutor(dask.NewClient(2), nil)
		got, err := leaflet.Run(ex, leaflet.TreeSearch, coords, cutoff, poisonTasks,
			leaflet.WithBlockCache(store, digest))
		if err != nil {
			t.Fatalf("accepted payload broke an in-process job: %v", err)
		}
		if err := graph.CheckLabels(got.Labels); err != nil {
			t.Fatalf("accepted payload: %v", err)
		}
	})
}
