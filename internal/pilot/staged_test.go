package pilot

import (
	"os"
	"path/filepath"
	"testing"

	"mdtask/internal/blockstore"
	"mdtask/internal/engine"
	"mdtask/internal/linalg"
	"mdtask/internal/psa"
	"mdtask/internal/stage"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// A unit's metrics file is bytes on disk the client cannot trust. One
// that is truncated or carries a negative count fails the job, and
// nothing of the run reaches the block store or the metrics sink — not
// even the well-formed units read before it.
func TestPilotRejectsBadUnitMetrics(t *testing.T) {
	ens := make(traj.Ensemble, 4)
	for i := range ens {
		ens[i] = synth.Walk("t", 3, 4, 1, uint64(i))
	}
	blocks, err := psa.Partition(len(ens), 2, true)
	if err != nil {
		t.Fatal(err)
	}
	p := newTestPilot(t, 4)
	for name, bad := range map[string]string{
		"truncated": `{"tasks":1,"pairs_evalu`,
		"negative":  `{"pairs_evaluated":-1}`,
	} {
		store := blockstore.New(1 << 20)
		plan, err := stage.PSA(traj.RefsOf(ens), 2, psa.Opts{Symmetric: true, Cache: store})
		if err != nil {
			t.Fatal(err)
		}
		var m engine.Metrics
		run := stage.Start(plan, store, &m)
		missing := run.Missing()
		if len(missing) != len(blocks) {
			t.Fatalf("%s: %d units to run, want %d", name, len(missing), len(blocks))
		}
		descs := make([]UnitDescription, len(missing))
		for k, i := range missing {
			vals := linalg.AppendFloats(nil, make([]float64, blocks[i].TaskPairs(true)))
			metrics := []byte(`{"pairs_evaluated":4}`)
			if k == len(missing)-1 {
				metrics = []byte(bad)
			}
			descs[k] = UnitDescription{
				OutputFiles: []string{"payload.bin", "metrics.json"},
				Fn: func(sandbox string) error {
					if err := os.WriteFile(filepath.Join(sandbox, "payload.bin"), vals, 0o644); err != nil {
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
		before := m.Snapshot()
		if err := collect(run, missing, units); err == nil {
			t.Fatalf("%s: metrics file %q accepted", name, bad)
		}
		if n := store.Len(); n != 0 {
			t.Errorf("%s: %d blocks recorded in the store", name, n)
		}
		if s := m.Snapshot(); s != before {
			t.Errorf("%s: metrics folded: %+v", name, s)
		}
	}
}
