package dask_test

import (
	"errors"
	"testing"

	"mdtask/internal/dask"
	"mdtask/internal/engine"
	"mdtask/internal/leaflet"
	"mdtask/internal/linalg"
	"mdtask/internal/synth"
)

// The paper-faithful Dask limitations live in the dask executor; these
// tests drive them through the analysis that hit them in the paper.

func TestExecutorScatterLimit(t *testing.T) {
	// Reproduce §4.3.1: Dask's scatter cannot broadcast systems above
	// the per-element-list limit. Broadcast rejects by element count
	// before doing any work, so a zeroed slice suffices.
	big := make([]linalg.Vec3, dask.ScatterElementLimit+1)
	ex := dask.NewExecutor(dask.NewClient(2), nil)
	_, err := leaflet.Run(ex, leaflet.Broadcast1D, big, 1.0, 8, engine.Env{})
	if !errors.Is(err, dask.ErrScatter) {
		t.Fatalf("err = %v, want ErrScatter", err)
	}
	if _, err := ex.Broadcast(big[:dask.ScatterElementLimit], 0); err != nil {
		t.Fatalf("a dataset at the limit failed to scatter: %v", err)
	}
}

func TestExecutorWorkerMemoryLimit(t *testing.T) {
	// With a tiny memory limit, tasks declaring a cdist working set fail
	// with the worker-restart error while the tree approach (no cdist
	// matrix, nothing declared) succeeds — the paper's §4.3.3/§4.3.4
	// contrast.
	sys := synth.Bilayer(3000, 4242)
	limited := func() *dask.Executor {
		client := dask.NewClient(4)
		client.MemoryLimit = 64 << 10
		return dask.NewExecutor(client, nil)
	}
	ex := limited()
	_, err := leaflet.Run(ex, leaflet.TaskAPI2D, sys.Coords, synth.BilayerCutoff, 8, engine.Env{})
	if !errors.Is(err, dask.ErrWorkerRestarted) {
		t.Fatalf("err = %v, want ErrWorkerRestarted", err)
	}
	if f := ex.Metrics().Snapshot().Failures; f == 0 {
		t.Error("restarted workers recorded no failures")
	}
	res, err := leaflet.Run(limited(), leaflet.TreeSearch, sys.Coords, synth.BilayerCutoff, 8, engine.Env{})
	if err != nil {
		t.Fatalf("tree approach failed under memory limit: %v", err)
	}
	if len(res.Components) != 2 {
		t.Errorf("components = %d", len(res.Components))
	}
}
