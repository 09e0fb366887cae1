// Package core is the public high-level API of the library: it runs MD
// trajectory analyses (Path Similarity Analysis, Leaflet Finder) on a
// selectable task-parallel engine, and encodes the paper's qualitative
// framework comparison (Table 1) and decision framework (Table 3) as a
// programmatic recommendation facility. It carries no engine dispatch
// of its own: every analysis reaches its engine through the jobs
// package's engine table — PSA and LeafletFinder as one-shot job runs,
// the row-chunked matrix analyses (PD, 2D-RMSD) as a Map over the
// engine's engine.Executor.
//
// Typical use:
//
//	cfg := core.Config{Engine: core.EngineDask, Parallelism: 8}
//	m, err := core.PSA(cfg, ensemble, hausdorff.EarlyBreak)
//	res, err := core.LeafletFinder(cfg, coords, cutoff, leaflet.TreeSearch)
package core

import (
	"fmt"
	"strconv"

	"mdtask/internal/hausdorff"
	"mdtask/internal/jobs"
	"mdtask/internal/leaflet"
	"mdtask/internal/linalg"
	"mdtask/internal/psa"
	"mdtask/internal/traj"
)

// Engine selects the task-parallel runtime to execute an analysis on.
type Engine int

const (
	// EngineMPI runs the SPMD MPI-like runtime.
	EngineMPI Engine = iota
	// EngineSpark runs the Spark-like RDD engine.
	EngineSpark
	// EngineDask runs the Dask-like delayed/task-graph engine.
	EngineDask
	// EnginePilot runs the RADICAL-Pilot-like pilot-job engine.
	EnginePilot
	// EngineSerial runs the single-goroutine reference implementation —
	// the baseline every parallel engine is validated against. It is not
	// part of Engines (the paper's comparison set).
	EngineSerial
	// EngineFleet runs the multi-process coordinator/worker engine
	// (internal/fleet): work units lease out over the HTTP worker
	// protocol. Through this API it boots an in-process loopback fleet
	// with Parallelism workers; servers embed the coordinator directly.
	// Like EngineSerial it is not part of Engines.
	EngineFleet
)

// engineNames gives each engine its display name and its name in the
// jobs engine table — the one place engines are brought up; core carries
// no dispatch of its own.
var engineNames = [...]struct{ display, jobs string }{
	EngineMPI:    {"MPI", jobs.EngineMPI},
	EngineSpark:  {"Spark", jobs.EngineSpark},
	EngineDask:   {"Dask", jobs.EngineDask},
	EnginePilot:  {"RADICAL-Pilot", jobs.EnginePilot},
	EngineSerial: {"Serial", jobs.EngineSerial},
	EngineFleet:  {"Fleet", jobs.EngineFleet},
}

func (e Engine) known() bool { return e >= 0 && int(e) < len(engineNames) }

// String returns the engine's display name.
func (e Engine) String() string {
	if !e.known() {
		return fmt.Sprintf("Engine(%d)", int(e))
	}
	return engineNames[e].display
}

// Engines lists all runtimes in the paper's comparison order.
var Engines = []Engine{EngineMPI, EngineSpark, EngineDask, EnginePilot}

// jobsName returns the engine's name in the jobs engine table.
func (e Engine) jobsName() (string, error) {
	if !e.known() {
		return "", fmt.Errorf("core: unknown engine %v", e)
	}
	return engineNames[e].jobs, nil
}

// Config selects and sizes the execution engine for an analysis run.
type Config struct {
	Engine Engine
	// Parallelism is the worker/rank count (< 1: GOMAXPROCS for the
	// shared-memory engines, 4 for MPI/pilot/fleet).
	Parallelism int
	// Tasks bounds the task count of partitioned analyses (0: one task
	// per worker for PSA, 1024 for Leaflet Finder, matching the paper).
	Tasks int
	// FullMatrix disables PSA's symmetry-aware scheduler and computes
	// all N² pairs including the mirror half and the zero diagonal —
	// the paper-faithful Algorithm 2 schedule, useful for figure
	// reproduction. The zero value keeps the ~2× cheaper symmetric
	// schedule, which produces bit-identical matrices.
	FullMatrix bool
}

// spec starts the job spec of an analysis run on the configured engine.
func (c Config) spec(analysis string) (jobs.Spec, error) {
	name, err := c.Engine.jobsName()
	if err != nil {
		return jobs.Spec{}, err
	}
	return jobs.Spec{
		Analysis:    analysis,
		Engine:      name,
		Parallelism: max(c.Parallelism, 0),
		Tasks:       max(c.Tasks, 0),
		FullMatrix:  c.FullMatrix,
	}, nil
}

// PSA computes the all-pairs Hausdorff distance matrix of the ensemble
// on the configured engine (the paper's §4.2 analysis).
func PSA(cfg Config, ens traj.Ensemble, method hausdorff.Method) (*psa.Matrix, error) {
	if err := ens.Validate(); err != nil {
		return nil, err
	}
	if len(ens) == 0 {
		return psa.NewMatrix(0), nil
	}
	spec, err := cfg.spec(jobs.AnalysisPSA)
	if err != nil {
		return nil, err
	}
	spec.Method = method.String()
	res, _, err := jobs.Run(jobs.DefaultRegistry(), spec, &jobs.Input{Ens: ens, Refs: traj.RefsOf(ens)})
	if err != nil {
		return nil, err
	}
	return res.Matrix, nil
}

// LeafletFinder identifies the lipid leaflets of a membrane snapshot on
// the configured engine using the selected architectural approach (the
// paper's §4.3). EnginePilot supports only leaflet.TaskAPI2D, the
// configuration the paper evaluates.
func LeafletFinder(cfg Config, coords []linalg.Vec3, cutoff float64, approach leaflet.Approach) (*leaflet.Result, error) {
	if len(coords) == 0 {
		return nil, fmt.Errorf("core: empty coordinate set")
	}
	if cutoff <= 0 {
		return nil, fmt.Errorf("core: cutoff must be positive, got %g", cutoff)
	}
	spec, err := cfg.spec(jobs.AnalysisLeaflet)
	if err != nil {
		return nil, err
	}
	spec.Approach = strconv.Itoa(int(approach))
	spec.Cutoff = cutoff
	if spec.Tasks == 0 {
		spec.Tasks = 1024
	}
	res, _, err := jobs.Run(jobs.DefaultRegistry(), spec, &jobs.Input{Coords: coords})
	if err != nil {
		return nil, err
	}
	return res.Leaflet, nil
}

// RMSDSeries computes the RMSD (with optimal superposition) of every
// frame of a trajectory against a reference frame: the per-frame
// analysis of §2 ("RMSD is used to identify the deviation of atom
// positions between frames").
func RMSDSeries(t *traj.Trajectory, ref []linalg.Vec3) ([]float64, error) {
	if len(ref) != t.NAtoms {
		return nil, fmt.Errorf("core: reference has %d atoms, trajectory has %d", len(ref), t.NAtoms)
	}
	out := make([]float64, len(t.Frames))
	for i, f := range t.Frames {
		out[i] = linalg.RMSD(f.Coords, ref)
	}
	return out, nil
}
