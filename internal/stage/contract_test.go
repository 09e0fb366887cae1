package stage_test

import (
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"mdtask/internal/blockstore"
	"mdtask/internal/engine"
	"mdtask/internal/fleet"
	"mdtask/internal/obs"
	"mdtask/internal/pilot"
	"mdtask/internal/psa"
	"mdtask/internal/stage"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// rekinded runs a real plan's units under another kind's body.
type rekinded struct {
	stage.Plan
	kind string
}

func (p rekinded) Units() []stage.Unit {
	units := append([]stage.Unit(nil), p.Plan.Units()...)
	for i := range units {
		units[i].Kind = p.kind
	}
	return units
}

// marked runs a real body and marks the unit's accounting, so a folded
// snapshot shows in the job's sink as BytesShuffled, which neither
// transport records itself.
func marked(kind string, after func(payload []byte, env stage.Env) []byte) func(json.RawMessage, stage.Env) ([]byte, error) {
	return func(desc json.RawMessage, env stage.Env) ([]byte, error) {
		payload, err := stage.Exec(stage.Unit{Kind: kind, Desc: desc}, env)
		if err != nil {
			return nil, err
		}
		env.Metrics.Add(engine.Snapshot{BytesShuffled: 1})
		return after(payload, env), nil
	}
}

// The transport contract: the pilot and the fleet run the same table of
// bad units — a PSA block with one value too many, a non-canonical
// Leaflet partial, a negative accounting field, and a cancel while the
// job runs — and in every case nothing is folded into the job's sink
// and nothing reaches the block store. The pilot fails the run; the
// fleet refuses each result, requeues the unit, and is aborted once the
// unit has come back (or the job is cancelled).
func TestTransportContract(t *testing.T) {
	ens := make(traj.Ensemble, 4)
	for i := range ens {
		ens[i] = synth.Walk("t", 3, 4, 9, uint64(i))
	}
	coords := synth.Bilayer(256, 5).Coords
	planPSA := func(store *blockstore.Store) (stage.Plan, error) {
		return stage.PSA(traj.RefsOf(ens), 2, psa.Opts{Symmetric: true, Cache: store})
	}
	planLeaflet := func(*blockstore.Store) (stage.Plan, error) {
		return stage.Leaflet(coords, synth.BilayerCutoff, 6, 4, true)
	}

	var (
		cancelled atomic.Bool
		runs      atomic.Int64
		release   chan struct{}
	)
	cases := []struct {
		name       string
		plan       func(*blockstore.Store) (stage.Plan, error)
		kind, like string
		exec       func(json.RawMessage, stage.Env) ([]byte, error)
	}{
		{"wrong-value-count", planPSA, "psa-long", "psa", marked("psa", func(p []byte, _ stage.Env) []byte {
			return append(p, make([]byte, 8)...)
		})},
		{"non-canonical-partial", planLeaflet, "leaflet-unsorted", "leaflet", marked("leaflet", func([]byte, stage.Env) []byte {
			return []byte(`{"comps":[[9,2]],"edges":1}`)
		})},
		{"negative-metrics", planPSA, "psa-negative", "psa", marked("psa", func(p []byte, env stage.Env) []byte {
			env.Metrics.Add(engine.Snapshot{BytesBroadcast: -1})
			return p
		})},
		{"cancel-mid-job", planPSA, "psa-cancel", "psa", marked("psa", func(p []byte, _ stage.Env) []byte {
			cancelled.Store(true)
			<-release
			return p
		})},
	}
	for _, c := range cases {
		defer stage.RegisterKind(c.kind, c.like, func(desc json.RawMessage, env stage.Env) ([]byte, error) {
			runs.Add(1)
			return c.exec(desc, env)
		})()
	}
	cfg := pilot.Config{
		DBLatency:          50 * time.Microsecond,
		AgentPollInterval:  500 * time.Microsecond,
		ClientPollInterval: 500 * time.Microsecond,
	}

	for _, c := range cases {
		for _, transport := range []string{"pilot", "fleet"} {
			t.Run(c.name+"/"+transport, func(t *testing.T) {
				cancelled.Store(false)
				runs.Store(0)
				release = make(chan struct{})
				store := blockstore.New(16 << 20)
				base, err := c.plan(store)
				if err != nil {
					t.Fatal(err)
				}
				plan := rekinded{base, c.kind}
				var m engine.Metrics
				switch transport {
				case "pilot":
					close(release)
					p, err := pilot.NewPilot(2, t.TempDir(), pilot.NewDB(cfg.DBLatency), cfg, &m)
					if err != nil {
						t.Fatal(err)
					}
					_, err = p.Run(plan, store, stage.Env{Env: engine.Env{Cancel: cancelled.Load}})
					p.Shutdown()
					if err == nil {
						t.Fatal("the pilot run succeeded")
					}
				case "fleet":
					opts := fleet.LocalOptions()
					opts.BlockStore = store
					lf, err := fleet.StartLocal(1, opts)
					if err != nil {
						t.Fatal(err)
					}
					job, err := lf.C.Submit(plan, &m, obs.SpanContext{})
					if err != nil {
						t.Fatal(err)
					}
					// A second run of a unit means the first result was refused.
					err = job.Wait(func() bool { return cancelled.Load() || runs.Load() >= 2 })
					close(release)
					lf.Close()
					if !errors.Is(err, fleet.ErrAborted) {
						t.Fatalf("the fleet job ended with %v, want ErrAborted", err)
					}
				}
				if s := m.Snapshot(); s.BytesShuffled != 0 || s.PairsEvaluated+s.PairsPruned+s.PairsAbandoned != 0 {
					t.Errorf("a unit's accounting was folded: %+v", s)
				}
				if n := store.Len(); n != 0 {
					t.Errorf("%d values reached the block store", n)
				}
			})
		}
	}
}
