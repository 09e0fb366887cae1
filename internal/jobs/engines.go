package jobs

import (
	"fmt"
	"os"

	"mdtask/internal/dask"
	"mdtask/internal/engine"
	"mdtask/internal/fleet"
	"mdtask/internal/hausdorff"
	"mdtask/internal/leaflet"
	"mdtask/internal/linalg"
	"mdtask/internal/mpi"
	"mdtask/internal/obs"
	"mdtask/internal/pilot"
	"mdtask/internal/psa"
	"mdtask/internal/rdd"
)

// engineRow says how one named engine runs the analyses. An engine is
// either closure-running — executor brings up its engine.Executor and
// the analyses run on it through psa.Run / leaflet.Run — or staged: its
// unit of exchange is bytes (sandbox files for the pilot, HTTP leases
// for the fleet), so it supplies its own psa and leaflet bodies.
type engineRow struct {
	// executor brings the engine up for one run, sized by the spec's
	// parallelism; it stops handing out tasks once cancel reports true.
	// Nil for staged engines.
	executor func(parallelism int, cancel func() bool) engine.Executor
	// chunkPerRank marks an SPMD engine: when the system is broadcast
	// (Approach 1) every rank takes exactly one row chunk, so the task
	// bound is the rank count, not the spec's (§4.3.1).
	chunkPerRank bool
	// psa and leaflet, when set, run the analysis in place of psa.Run /
	// leaflet.Run on the executor. shared is the server's embedded
	// fleet coordinator (nil in the one-shot CLIs); parent is the
	// engine stage span.
	psa     func(shared *fleet.Coordinator, rc *RunContext, spec Spec, in *Input, opts psa.Opts) (*psa.Matrix, error)
	leaflet func(shared *fleet.Coordinator, rc *RunContext, spec Spec, in *Input, approach leaflet.Approach, parent obs.SpanContext) (*leaflet.Result, error)
	// leafletPlan, when set, replaces leaflet.PlanTasks for engines
	// whose leaflet body schedules a fixed dataflow whatever the
	// approach, or records more tasks than leaflet.Run hands it.
	leafletPlan func(spec Spec, coords []linalg.Vec3) int
}

// engineTable is the one place an engine name becomes an engine:
// DefaultRegistry registers every runner from it, PlannedTasks plans
// from it, and core's analyses reach engines through it (NewExecutor).
var engineTable = map[string]engineRow{
	EngineSerial: {
		executor:    func(_ int, cancel func() bool) engine.Executor { return engine.NewSerial(cancel) },
		leaflet:     leafletSerial,
		leafletPlan: func(Spec, []linalg.Vec3) int { return 1 },
	},
	EngineSpark: {
		executor: func(p int, cancel func() bool) engine.Executor {
			return rdd.NewExecutor(rdd.NewContext(p), cancel)
		},
	},
	EngineDask: {
		executor: func(p int, cancel func() bool) engine.Executor {
			return dask.NewExecutor(dask.NewClient(p), cancel)
		},
		leafletPlan: planDaskGraph,
	},
	EngineMPI: {
		executor: func(p int, cancel func() bool) engine.Executor {
			return mpi.NewExecutor(ranksFor(p), cancel)
		},
		chunkPerRank: true,
	},
	EnginePilot: {psa: psaPilot, leaflet: leafletPilot, leafletPlan: plan2D},
	EngineFleet: {psa: psaFleet, leaflet: leafletFleet, leafletPlan: plan2D},
}

// plan2D plans the engines that run every approach over the live tiles
// of the 2-D grid.
func plan2D(spec Spec, coords []linalg.Vec3) int {
	return leaflet.PlanTasks(leaflet.TaskAPI2D, coords, spec.Cutoff, spec.Tasks)
}

// planDaskGraph plans a dask Leaflet job by the nodes of the graph
// dask.Executor builds, since every node records as a task: Broadcast
// adds one scatter node to the row chunks, and Reduce folds its N live
// tile nodes through a bag — N fold-accumulate and N−1 fold-combine
// nodes on top. Progress is tasks ÷ planned, so planning the tiles alone
// pinned it at its clamp a third of the way in.
func planDaskGraph(spec Spec, coords []linalg.Vec3) int {
	approach, _, err := ParseApproach(spec.Approach)
	if err != nil {
		return 0
	}
	n := leaflet.PlanTasks(approach, coords, spec.Cutoff, spec.Tasks)
	switch approach {
	case leaflet.Broadcast1D:
		return n + 1
	case leaflet.ParallelCC, leaflet.TreeSearch:
		if n > 0 { // Reduce builds no graph for zero tasks
			return 3*n - 1
		}
	}
	return n
}

// NewExecutor brings up the named engine's executor for one run.
// Staged engines (pilot, fleet) run no closures and have none.
func NewExecutor(engineName string, parallelism int, cancel func() bool) (engine.Executor, error) {
	row, ok := engineTable[engineName]
	if !ok {
		return nil, fmt.Errorf("jobs: unknown engine %q", engineName)
	}
	if row.executor == nil {
		return nil, fmt.Errorf("jobs: engine %q runs staged units, not closures", engineName)
	}
	return row.executor(parallelism, cancel), nil
}

// DefaultRegistry returns a registry with both analyses registered on
// all six engines. Fleet jobs boot an ephemeral in-process fleet each —
// the CLI one-shot behaviour; servers embedding a shared coordinator
// use RegistryWithFleet.
func DefaultRegistry() *Registry {
	return RegistryWithFleet(nil)
}

// RegistryWithFleet returns the default registry with the fleet
// runners bound to coordinator c, so fleet jobs fan out over whatever
// workers are registered with c (cmd/mdserver passes its embedded
// coordinator). A nil c makes every fleet job boot an ephemeral
// loopback fleet sized by its spec's parallelism instead.
func RegistryWithFleet(c *fleet.Coordinator) *Registry {
	r := NewRegistry()
	for name, row := range engineTable {
		must(r.Register(RunnerName(AnalysisPSA, name), psaRunner(name, row, c)))
		must(r.Register(RunnerName(AnalysisLeaflet, name), leafletRunner(name, row, c)))
	}
	return r
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// ranksFor resolves the process count of the distributed-memory
// engines.
func ranksFor(parallelism int) int {
	if parallelism > 0 {
		return parallelism
	}
	return 4
}

func (s Spec) ranks() int { return ranksFor(s.Parallelism) }

// groupSize resolves PSA's block edge length n1 for an N-trajectory
// ensemble ("one task per core" unless Tasks overrides).
func (s Spec) groupSize(n int) int {
	wantTasks := s.Tasks
	if wantTasks <= 0 {
		wantTasks = s.ranks()
	}
	return psa.DefaultGroupSize(n, wantTasks)
}

// leafletTasks resolves the task bound leaflet.Run tiles with.
func (s Spec) leafletTasks(approach leaflet.Approach) int {
	if approach == leaflet.Broadcast1D && engineTable[s.Engine].chunkPerRank {
		return s.ranks()
	}
	return s.Tasks
}

// hausdorffMethod maps a normalized method name to the kernel.
func (s Spec) hausdorffMethod() hausdorff.Method {
	m, err := hausdorff.ParseMethod(s.Method)
	if err != nil {
		return hausdorff.Naive
	}
	return m
}

// PlannedTasks is how many engine tasks a job will run, for progress
// reporting (0: unknown). It calls the plan functions the runs
// themselves schedule with, so the two cannot drift apart.
func PlannedTasks(spec Spec, in *Input) int {
	switch spec.Analysis {
	case AnalysisPSA:
		blocks, err := psa.Partition(len(in.Refs), spec.groupSize(len(in.Refs)), !spec.FullMatrix)
		if err != nil {
			return 0
		}
		return len(blocks)
	case AnalysisLeaflet:
		if plan := engineTable[spec.Engine].leafletPlan; plan != nil {
			return plan(spec, in.Coords)
		}
		approach, _, err := ParseApproach(spec.Approach)
		if err != nil {
			return 0
		}
		return leaflet.PlanTasks(approach, in.Coords, spec.Cutoff, spec.leafletTasks(approach))
	}
	return 0
}

// finish maps a runner's outcome to its result, cancellation first: a
// cancelled run's error (engine.ErrCancelled, fleet.ErrAborted, or none
// at all when the last tasks drained by themselves) always reports as
// ErrCancelled.
func finish(rc *RunContext, res *Result, err error) (*Result, error) {
	if rc.Cancelled() {
		return nil, ErrCancelled
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// psaRunner builds the PSA runner of one engine: on a closure-running
// engine bring the executor up and hand it to psa.Run; on a staged one
// hand the same options to the row's own body.
func psaRunner(engineName string, row engineRow, shared *fleet.Coordinator) Runner {
	return func(rc *RunContext, spec Spec, in *Input) (*Result, error) {
		if rc.Cancelled() {
			return nil, ErrCancelled
		}
		// The engine stage span covers scheduling plus every block task;
		// per-block psa.block spans (and their cache.do children) nest
		// under it through opts.
		engSpan := rc.Tracer().StartChild(rc.TraceParent(), "engine."+engineName)
		defer engSpan.End()
		opts := psa.Opts{
			Symmetric:         !spec.FullMatrix,
			Method:            spec.hausdorffMethod(),
			Cancel:            rc.Cancelled,
			MaxResidentFrames: spec.MaxResidentFrames,
			Tracer:            rc.Tracer(),
			TraceParent:       engSpan.Context(),
			// Every task body consults the run's block store (nil on the
			// uncached one-shot path), so blocks shared with earlier jobs
			// skip their kernels whatever the engine.
			Cache: rc.BlockStore(),
		}
		if o := rc.Obs(); o != nil {
			opts.KernelHist = o.Metrics.Histogram("mdtask_block_kernel_seconds",
				"Wall time of block kernels (PSA blocks and Leaflet tiles).", nil)
		}
		if row.psa != nil {
			opts.Metrics = rc.Metrics()
			mat, err := row.psa(shared, rc, spec, in, opts)
			return finish(rc, &Result{Matrix: mat}, err)
		}
		if (opts.Method == hausdorff.Pruned || opts.Method == hausdorff.Indexed) && opts.MaxResidentFrames == 0 {
			// Both kernels read the packed representation (contiguous
			// frames + per-frame pruning statistics). Build it once up
			// front, O(F·N) per trajectory and one task per trajectory,
			// so no timed kernel task pays for it and concurrent tasks
			// never pack the same trajectory twice. Runs after the cache
			// lookup: a cache hit never packs. The streamed kernel packs
			// windows on the fly instead.
			if err := engine.NewPool(0, nil).ForEach(len(in.Ens), func(i int) error {
				in.Ens[i].Packed()
				return nil
			}); err != nil {
				return nil, err
			}
		}
		ex := row.executor(spec.Parallelism, rc.Cancelled)
		rc.SetMetrics(ex.Metrics())
		mat, err := psa.Run(ex, in.Refs, spec.groupSize(len(in.Refs)), opts)
		return finish(rc, &Result{Matrix: mat}, err)
	}
}

// psaPilot is the pilot engine's PSA body: units exchange staged MDT
// files, so it runs psa.RunPilotRefs rather than psa.Run.
func psaPilot(_ *fleet.Coordinator, rc *RunContext, spec Spec, in *Input, opts psa.Opts) (*psa.Matrix, error) {
	p, cleanup, err := startPilot(spec.ranks(), rc.Metrics())
	if err != nil {
		return nil, err
	}
	defer cleanup()
	return psa.RunPilotRefs(p, in.Refs, spec.groupSize(len(in.Refs)), opts)
}

// leafletRunner builds the Leaflet Finder runner of one engine, like
// psaRunner.
func leafletRunner(engineName string, row engineRow, shared *fleet.Coordinator) Runner {
	return func(rc *RunContext, spec Spec, in *Input) (*Result, error) {
		approach, _, err := ParseApproach(spec.Approach)
		if err != nil {
			return nil, err
		}
		if rc.Cancelled() {
			return nil, ErrCancelled
		}
		engSpan := rc.Tracer().StartChild(rc.TraceParent(), "engine."+engineName)
		defer engSpan.End()
		var res *leaflet.Result
		if row.leaflet != nil {
			res, err = row.leaflet(shared, rc, spec, in, approach, engSpan.Context())
		} else {
			// The tile bodies of the tile-parallel approaches consult the
			// run's block store, keyed under the input's content digest.
			opts := []leaflet.Option{leaflet.WithTrace(rc.Tracer(), engSpan.Context())}
			if store := rc.BlockStore(); store != nil {
				if digest, derr := in.ContentDigest(); derr == nil {
					opts = append(opts, leaflet.WithBlockCache(store, digest))
				}
			}
			ex := row.executor(spec.Parallelism, rc.Cancelled)
			rc.SetMetrics(ex.Metrics())
			res, err = leaflet.Run(ex, approach, in.Coords, spec.Cutoff, spec.leafletTasks(approach), opts...)
		}
		// What the plan saved: the grid's tiles against the live ones run.
		if res != nil && rc.Tracer().Enabled() && tiled2D(engineName, approach) {
			engSpan.SetAttrInt("tiles_grid", int64(len(leaflet.Plan2D(len(in.Coords), spec.Tasks))))
			engSpan.SetAttrInt("tiles_live", int64(res.Stats.Tasks))
		}
		return finish(rc, &Result{Leaflet: res}, err)
	}
}

// tiled2D reports whether an engine runs an approach over the 2-D grid:
// the serial reference runs untiled, and Approach 1 cuts 1-D row chunks
// everywhere but on the fleet, which runs every approach over the grid.
func tiled2D(engineName string, approach leaflet.Approach) bool {
	return engineName != EngineSerial && (approach != leaflet.Broadcast1D || engineName == EngineFleet)
}

// leafletSerial runs the untiled reference, leaflet.Serial, as one task
// of the serial executor — the trusted answer the others are compared
// to. It has no per-tile unit and relies on whole-job cache entries.
func leafletSerial(_ *fleet.Coordinator, rc *RunContext, spec Spec, in *Input, _ leaflet.Approach, _ obs.SpanContext) (*leaflet.Result, error) {
	ex := engine.NewSerial(rc.Cancelled)
	rc.SetMetrics(ex.Metrics())
	res, err := engine.Map(ex, 1, nil, func(int) (*leaflet.Result, error) {
		return leaflet.Serial(in.Coords, spec.Cutoff, leaflet.WithCancel(rc.Cancelled)), nil
	})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// leafletPilot is the pilot engine's Leaflet body: one unit per 2-D
// block exchanging coordinate and edge files (the Figure 9
// configuration), the only dataflow the pilot stages.
func leafletPilot(_ *fleet.Coordinator, rc *RunContext, spec Spec, in *Input, approach leaflet.Approach, _ obs.SpanContext) (*leaflet.Result, error) {
	if approach != leaflet.TaskAPI2D {
		return nil, fmt.Errorf("jobs: the pilot engine supports only the task2d approach, got %q", spec.Approach)
	}
	p, cleanup, err := startPilot(spec.ranks(), rc.Metrics())
	if err != nil {
		return nil, err
	}
	defer cleanup()
	return leaflet.RunPilot(p, in.Coords, spec.Cutoff, spec.Tasks, leaflet.WithCancel(rc.Cancelled))
}

// startPilot brings up a pilot with a temporary staging directory and
// the given metrics sink, returning a cleanup function.
func startPilot(cores int, m *engine.Metrics) (*pilot.Pilot, func(), error) {
	dir, err := os.MkdirTemp("", "mdtask-jobs-pilot-*")
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: creating pilot staging dir: %w", err)
	}
	cfg := pilot.Defaults()
	db := pilot.NewDB(cfg.DBLatency)
	p, err := pilot.NewPilot(cores, dir, db, cfg, m)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return p, func() {
		p.Shutdown()
		os.RemoveAll(dir)
	}, nil
}
