package jobs

import (
	"fmt"
	"os"

	"mdtask/internal/dask"
	"mdtask/internal/engine"
	"mdtask/internal/fleet"
	"mdtask/internal/hausdorff"
	"mdtask/internal/leaflet"
	"mdtask/internal/mpi"
	"mdtask/internal/pilot"
	"mdtask/internal/psa"
	"mdtask/internal/rdd"
	"mdtask/internal/stage"
)

// engineRow says how one named engine runs the analyses. An engine is
// either closure-running — executor brings up its engine.Executor and
// the analyses run on it through psa.Run / leaflet.Run — or staged: its
// unit of exchange is bytes (sandbox files for the pilot, HTTP leases
// for the fleet), so it ships each analysis's staged units
// (internal/stage) over its transport instead.
type engineRow struct {
	// executor brings the engine up for one run, sized by the spec's
	// parallelism; it stops handing out tasks once cancel reports true.
	// Nil for staged engines.
	executor func(parallelism int, cancel func() bool) engine.Executor
	// chunkPerRank marks an SPMD engine: when the system is broadcast
	// (Approach 1) every rank takes exactly one row chunk, so the task
	// bound is the rank count, not the spec's (§4.3.1).
	chunkPerRank bool
	// staged, when set, runs a staged engine: it ships plan's units over
	// the engine's transport and returns what the plan assembled.
	// shared is the server's embedded fleet coordinator (nil in the
	// one-shot CLIs); env is the run's task environment (RunContext.Env),
	// whose TraceParent is the engine stage span the units' spans nest
	// under.
	staged func(shared *fleet.Coordinator, rc *RunContext, spec Spec, plan stage.Plan, env stage.Env) (any, error)
}

// engineTable is the one place an engine name becomes an engine:
// DefaultRegistry registers every runner from it, and core's analyses
// reach engines through it (NewExecutor).
var engineTable = map[string]engineRow{
	EngineSerial: {
		executor: func(_ int, cancel func() bool) engine.Executor { return engine.NewSerial(cancel) },
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
	},
	EngineMPI: {
		executor: func(p int, cancel func() bool) engine.Executor {
			return mpi.NewExecutor(ranksFor(p), cancel)
		},
		chunkPerRank: true,
	},
	EnginePilot: {staged: runPilot},
	EngineFleet: {staged: runFleet},
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

// checkPlan refuses an n-member PSA ensemble whose plan would pass
// MaxPSABlocks, counted (psa.PlanBlocks) without building it.
func (s Spec) checkPlan(n int) error {
	n1 := s.groupSize(n)
	if blocks := psa.PlanBlocks(n, n1, !s.FullMatrix); blocks > MaxPSABlocks {
		return fmt.Errorf("jobs: a psa plan of %d members in groups of %d is %d blocks, over %d", n, n1, blocks, MaxPSABlocks)
	}
	return nil
}

// leafletWorkers is the worker count the tree approach plans its tiles
// for: one on the serial engine, the spec's ranks on every other. It is
// never the machine's GOMAXPROCS nor a shared fleet's registered
// workers, because the plan shows in the result's Stats, which the
// result's digest covers.
func (s Spec) leafletWorkers() int {
	if s.Engine == EngineSerial {
		return 1
	}
	return s.ranks()
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
// cut the job into staged units (stage.PSA) and ship them over the
// engine's transport.
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
			Env:               rc.Env(engSpan.Context()),
			MaxResidentFrames: spec.MaxResidentFrames,
			// Every task body consults the run's block store (nil on the
			// uncached one-shot path), so blocks shared with earlier jobs
			// skip their kernels whatever the engine.
			Cache: rc.BlockStore(),
		}
		if row.staged != nil {
			plan, err := stage.PSA(in.Refs, spec.groupSize(len(in.Refs)), opts)
			if err != nil {
				return nil, err
			}
			res, err := row.staged(shared, rc, spec, plan, stage.Env{Env: opts.Env})
			mat, _ := res.(*psa.Matrix)
			return finish(rc, &Result{Matrix: mat}, err)
		}
		ex := row.executor(spec.Parallelism, rc.Cancelled)
		rc.SetMetrics(ex.Metrics())
		mat, err := psa.Run(ex, in.Refs, spec.groupSize(len(in.Refs)), opts)
		return finish(rc, &Result{Matrix: mat}, err)
	}
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
		// Tiles are not cached; the scheduler caches the whole job.
		env := rc.Env(engSpan.Context())
		var res *leaflet.Result
		if row.staged != nil {
			var plan stage.Plan
			if plan, err = stage.Leaflet(in.Coords, spec.Cutoff, spec.Tasks, spec.leafletWorkers(), approach == leaflet.TreeSearch); err == nil {
				var out any
				out, err = row.staged(shared, rc, spec, plan, stage.Env{Env: env})
				res, _ = out.(*leaflet.Result)
			}
		} else {
			ex := row.executor(spec.Parallelism, rc.Cancelled)
			rc.SetMetrics(ex.Metrics())
			res, err = leaflet.Run(ex, approach, in.Coords, spec.Cutoff, spec.leafletTasks(approach), spec.leafletWorkers(), env)
		}
		// What the plan saved: the grid's tiles against the ones run.
		// The staged engines run every approach as one unit per planned
		// tile; the executors cut Approach 1 into 1-D row chunks instead.
		if res != nil && rc.Tracer().Enabled() && (row.staged != nil || approach != leaflet.Broadcast1D) {
			engSpan.SetAttrInt("tiles_grid", int64(leaflet.GridTiles(len(in.Coords), spec.Tasks)))
			engSpan.SetAttrInt("tiles_live", int64(res.Stats.Tasks))
		}
		return finish(rc, &Result{Leaflet: res}, err)
	}
}

// runPilot is the pilot engine: each staged unit the block store cannot
// serve runs as one Compute-Unit exchanging files in a temporary
// staging directory.
func runPilot(_ *fleet.Coordinator, rc *RunContext, spec Spec, plan stage.Plan, env stage.Env) (any, error) {
	dir, err := os.MkdirTemp("", "mdtask-jobs-pilot-*")
	if err != nil {
		return nil, fmt.Errorf("jobs: creating pilot staging dir: %w", err)
	}
	defer os.RemoveAll(dir)
	p, err := pilot.NewPilot(spec.ranks(), dir, rc.Metrics())
	if err != nil {
		return nil, err
	}
	defer p.Shutdown()
	return p.Run(plan, rc.BlockStore(), env)
}

// runFleet is the fleet engine: the staged units fan out as leases.
// Bound to a shared coordinator (the one cmd/mdserver embeds and
// cmd/mdworker processes pull from), they go to whatever workers are
// registered, and the coordinator carries the server's block store.
// With none bound (the CLI one-shot path), each job boots an ephemeral
// loopback fleet sized by the spec's parallelism and handed the run's
// store, so `-engine fleet` works standalone, still exercising the full
// wire protocol and feeding the same cache as every other engine.
// Cancellation and metrics are coordinator-side concerns.
func runFleet(shared *fleet.Coordinator, rc *RunContext, spec Spec, plan stage.Plan, env stage.Env) (any, error) {
	c := shared
	if c == nil {
		lo := fleet.LocalOptions()
		lo.BlockStore = rc.BlockStore()
		lo.Tracer = rc.Tracer()
		lf, err := fleet.StartLocal(spec.ranks(), lo)
		if err != nil {
			return nil, err
		}
		defer lf.Close()
		c = lf.C
	}
	job, err := c.Submit(plan, rc.Metrics(), env.TraceParent)
	if err != nil {
		return nil, err
	}
	defer c.Drop(job)
	if err := job.Wait(rc.Cancelled); err != nil {
		return nil, err // an abort maps to ErrCancelled in the runner
	}
	return job.Result(), nil
}
