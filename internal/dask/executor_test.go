package dask_test

import (
	"errors"
	"testing"

	"mdtask/internal/dask"
	"mdtask/internal/engine"
	"mdtask/internal/leaflet"
	"mdtask/internal/linalg"
)

// The paper-faithful Dask scatter limit lives in the dask executor;
// this test drives it through the analysis that hit it in the paper.

func TestExecutorScatterLimit(t *testing.T) {
	// Reproduce §4.3.1: Dask's scatter cannot broadcast systems above
	// the per-element-list limit. Broadcast rejects by element count
	// before doing any work, so a zeroed slice suffices.
	big := make([]linalg.Vec3, dask.ScatterElementLimit+1)
	ex := dask.NewExecutor(dask.NewClient(2), nil)
	_, err := leaflet.Run(ex, leaflet.Broadcast1D, big, 1.0, 8, 4, engine.Env{})
	if !errors.Is(err, dask.ErrScatter) {
		t.Fatalf("err = %v, want ErrScatter", err)
	}
	if _, err := ex.Broadcast(big[:dask.ScatterElementLimit], 0); err != nil {
		t.Fatalf("a dataset at the limit failed to scatter: %v", err)
	}
}
