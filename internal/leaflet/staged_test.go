package leaflet_test

import (
	"slices"
	"testing"
	"time"

	"mdtask/internal/blockstore"
	"mdtask/internal/engine"
	"mdtask/internal/leaflet"
	"mdtask/internal/pilot"
	"mdtask/internal/stage"
	"mdtask/internal/synth"
)

// The pilot runs a Leaflet job as one staged unit per live tile, each
// shipping its partial components: it must partition the membrane as
// Serial does with either edge kernel and account the partials' wire
// size as its shuffle. Tiles are not cached: a resubmission runs every
// live tile again and the store stays empty.
func TestPilotDriverMatchesSerial(t *testing.T) {
	sys := synth.Bilayer(1200, 4242)
	want := leaflet.Serial(sys.Coords, synth.BilayerCutoff)
	cfg := pilot.Config{
		DBLatency:          50 * time.Microsecond,
		AgentPollInterval:  500 * time.Microsecond,
		ClientPollInterval: 500 * time.Microsecond,
	}
	var m engine.Metrics
	p, err := pilot.NewPilot(4, t.TempDir(), pilot.NewDB(cfg.DBLatency), cfg, &m)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	store := blockstore.New(64 << 20)
	for _, tree := range []bool{false, true} {
		for pass := range 2 {
			plan, err := stage.Leaflet(sys.Coords, synth.BilayerCutoff, 12, 4, tree)
			if err != nil {
				t.Fatal(err)
			}
			before := m.Snapshot()
			res, err := p.Run(plan, store, stage.Env{})
			if err != nil {
				t.Fatal(err)
			}
			got := res.(*leaflet.Result)
			if !slices.Equal(got.Labels, want.Labels) {
				t.Fatalf("tree=%v pass %d: pilot result differs from serial", tree, pass)
			}
			if got.Stats.Edges != want.Stats.Edges {
				t.Errorf("tree=%v pass %d: edges = %d, want %d", tree, pass, got.Stats.Edges, want.Stats.Edges)
			}
			if got.Stats.ShuffleBytes <= 0 || got.Stats.ShuffleBytes >= int64(want.Stats.Edges)*8 {
				t.Errorf("tree=%v pass %d: shuffled %d B, want partials smaller than the %d B edge list",
					tree, pass, got.Stats.ShuffleBytes, want.Stats.Edges*8)
			}
			s := m.Snapshot()
			ran, hits := s.Tasks-before.Tasks, s.BlockCacheHits-before.BlockCacheHits
			if live := int64(got.Stats.Tasks); ran != live || hits != 0 {
				t.Errorf("tree=%v pass %d: ran %d units, %d cache hits, of %d tiles", tree, pass, ran, hits, live)
			}
			if store.Len() != 0 {
				t.Errorf("tree=%v pass %d: store holds %d entries", tree, pass, store.Len())
			}
		}
	}
}
