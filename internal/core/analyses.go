package core

import (
	"fmt"

	"mdtask/internal/engine"
	"mdtask/internal/jobs"
	"mdtask/internal/linalg"
	"mdtask/internal/traj"
)

// The remaining §2 analyses: Pairwise Distances (PD) and the 2D-RMSD
// matrix, both engine-parallel over row chunks. Sub-setting lives on
// traj.Trajectory (SelectAtoms / SelectFrames / SphereSelection).

// rowChunk is a half-open row range of an output matrix.
type rowChunk struct{ lo, hi int }

// rowChunks splits n rows into at most parts contiguous chunks.
func rowChunks(n, parts int) []rowChunk {
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([]rowChunk, 0, parts)
	for p := 0; p < parts; p++ {
		out = append(out, rowChunk{lo: p * n / parts, hi: (p + 1) * n / parts})
	}
	return out
}

// runRowChunks executes fn over row chunks on the configured engine's
// executor and assembles the row-major result rows (each fn call
// returns the rows [c.lo, c.hi) × width). Staged engines (pilot, fleet)
// run no closures and are rejected.
func runRowChunks(cfg Config, n, width int, fn func(c rowChunk) []float64) ([]float64, error) {
	name, err := cfg.Engine.jobsName()
	if err != nil {
		return nil, err
	}
	ex, err := jobs.NewExecutor(name, cfg.Parallelism, nil)
	if err != nil {
		return nil, fmt.Errorf("core: engine %v does not support matrix analyses: %w", cfg.Engine, err)
	}
	chunks := rowChunks(n, maxTasksFor(cfg))
	rows, err := engine.Map(ex, len(chunks), nil, func(i int) ([]float64, error) { return fn(chunks[i]), nil })
	if err != nil {
		return nil, err
	}
	out := make([]float64, n*width)
	for i, c := range chunks {
		if len(rows[i]) != (c.hi-c.lo)*width {
			return nil, fmt.Errorf("core: chunk [%d,%d) returned %d values, want %d",
				c.lo, c.hi, len(rows[i]), (c.hi-c.lo)*width)
		}
		copy(out[c.lo*width:c.hi*width], rows[i])
	}
	return out, nil
}

// maxTasksFor derives a task bound from the config.
func maxTasksFor(cfg Config) int {
	if cfg.Tasks > 0 {
		return cfg.Tasks
	}
	if cfg.Parallelism > 0 {
		return 4 * cfg.Parallelism
	}
	return 64
}

// PairwiseDistances computes the n×n Euclidean distance matrix between
// the atoms of a frame (the paper's PD analysis, §2), parallelized over
// row chunks on the configured engine (serial, MPI, Spark, or Dask).
func PairwiseDistances(cfg Config, frame []linalg.Vec3) ([]float64, error) {
	n := len(frame)
	return runRowChunks(cfg, n, n, func(c rowChunk) []float64 {
		return linalg.Cdist(frame[c.lo:c.hi], frame)
	})
}

// RMSD2D computes the frame-by-frame RMSD matrix of a trajectory with
// optimal superposition per pair: element (i, j) is the superposed RMSD
// between frames i and j. This is the "2D-RMSD" self-comparison used to
// detect conformational transitions, parallelized over row chunks.
func RMSD2D(cfg Config, t *traj.Trajectory) ([]float64, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n := t.NFrames()
	return runRowChunks(cfg, n, n, func(c rowChunk) []float64 {
		rows := make([]float64, (c.hi-c.lo)*n)
		for i := c.lo; i < c.hi; i++ {
			for j := 0; j < n; j++ {
				rows[(i-c.lo)*n+j] = linalg.RMSD(t.FrameCoords(i), t.FrameCoords(j))
			}
		}
		return rows
	})
}
