package loadgen

import (
	"hash/fnv"
	"sync"
	"time"

	"mdtask/internal/jobs"
)

// Scenario is one named load mode or gate. Load scenarios scale from
// Config.Jobs and Config.Concurrency, clamping where the mode needs
// fewer, and derive every generated spec from Config.Seed plus the
// scenario name, so two runs with the same knobs submit byte-identical
// specs. A gate (gates.go) is named after its make target and boots
// the processes it checks.
type Scenario struct {
	Name        string
	Description string
	// NeedsWorkers marks scenarios that only make sense with fleet
	// workers registered (skipped when none, unless RequireWorkers).
	NeedsWorkers bool
	// ChaosOnly marks the chaos scenario: its fault-evidence
	// invariants arm only under Config.Chaos.
	ChaosOnly bool
	// run drives Config.Server; nil for a gate whose checks interleave
	// with killing and restarting its processes.
	run func(h *Harness) error
	// gate boots the scenario's own processes and checks them (RunGate);
	// nil for a load scenario.
	gate func(g *gateRun) error
}

// Boots reports whether the scenario is a gate: one that starts its own
// mdserver and mdworker processes rather than drive Config.Server.
func (sc Scenario) Boots() bool { return sc.gate != nil }

// Scenarios returns every scenario in suite order.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:        "resubmit-storm",
			Description: "cache-hot storm: one seeded job, then identical resubmissions that must all be whole-job cache hits",
			run:         runResubmitStorm,
		},
		{
			Name:        "delta-append",
			Description: "growing-ensemble storm: each job appends a trajectory, so block-level cache reuse must kick in",
			run:         runDeltaAppend,
		},
		{
			Name:         "fleet-fanout",
			Description:  "fleet jobs across all four Hausdorff methods fanned out to live mdworkers",
			NeedsWorkers: true,
			run:          runFleetFanout,
		},
		{
			Name:        "cancel-storm",
			Description: "submit-then-cancel storm racing DELETE against the queue and the runner",
			run:         runCancelStorm,
		},
		{
			Name:        "stream-mix",
			Description: "streamed and in-memory twins of the same input; the second of each pair must be a cache hit",
			run:         runStreamMix,
		},
		{
			Name:        "overload",
			Description: "burst past the queue depth for 429s and probe the body bound for 413",
			run:         runOverload,
		},
		{
			Name:         "chaos",
			Description:  "fleet jobs against MDTASK_FAULTS-armed workers; jobs must still complete via requeue",
			NeedsWorkers: true,
			ChaosOnly:    true,
			run:          runChaos,
		},
		{Name: "smoke-serve", run: runSmokeServe, gate: bootOne(),
			Description: "gate: a fresh mdserver is healthy and runs a tiny dask PSA job to a 200 result"},
		{Name: "smoke-cache", run: runSmokeCache, gate: bootOne("-workers", "1"),
			Description: "gate: a job grown by one trajectory recomputes only its new blocks (10 hits, 5 misses, 128 pairs)"},
		{Name: "smoke-fleet", gate: gateFleet,
			Description: "gate: a worker SIGKILLed holding a lease; the fleet job still matches the serial matrix"},
		{Name: "smoke-obs", gate: gateObs,
			Description: "gate: both processes' expositions parse and count the submissions; one cross-process trace"},
		{Name: "smoke-crash", gate: gateCrash,
			Description: "gate: mdserver SIGKILLed mid fleet job and restarted on its journal; zero jobs lost"},
		{Name: "loadgate", gate: gateLoad,
			Description: "gate: the load suite on a queue of 4 with two workers, then chaos against a fault-armed worker"},
	}
}

// Lookup finds a scenario by name.
func Lookup(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// seedFor folds the scenario name into the run seed so no two
// scenarios ever submit the same generated input.
func (h *Harness) seedFor(scenario string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(scenario))
	return h.cfg.Seed*0x9E3779B9 + f.Sum64()
}

// psaSpec builds the harness's standard small PSA job.
func psaSpec(engine, method string, count, atoms, frames int, seed uint64) jobs.Spec {
	return jobs.Spec{
		Analysis: jobs.AnalysisPSA,
		Engine:   engine,
		Method:   method,
		Synth:    &jobs.SynthSpec{Count: count, Atoms: atoms, Frames: frames, Seed: seed},
	}
}

// runResubmitStorm seeds the cache with one job, then storms the API
// with identical submissions: every one must be answered from the
// whole-job cache (CacheHit true) and reach done.
func runResubmitStorm(h *Harness) error {
	seed := h.seedFor("resubmit-storm")
	spec := psaSpec(jobs.EngineSerial, "pruned", 4, 32, 16, seed)
	st, err := h.submitRetry(spec)
	if err != nil {
		return err
	}
	if _, err := h.waitTerminal(st.ID); err != nil {
		return err
	}
	warm := 0
	err = h.parallel(h.cfg.Concurrency, h.cfg.Jobs, func(i int) error {
		st, err := h.submitRetry(spec)
		if err != nil {
			return err
		}
		if st.CacheHit {
			h.mu.Lock()
			warm++
			h.mu.Unlock()
		}
		_, err = h.waitTerminal(st.ID)
		return err
	})
	if err != nil {
		return err
	}
	h.mu.Lock()
	n := len(h.accepted) - 1 // minus the seeding job
	h.mu.Unlock()
	h.check("all-resubmissions-cache-hit", warm == n, "%d/%d storm submissions were cache hits", warm, n)
	return nil
}

// runDeltaAppend grows the ensemble by one trajectory per job. Synth
// trajectory i is a pure function of (seed, i), so every grown job
// shares all pairs of the seeded base — its block hit ratio must be
// positive even though the whole-job key differs. Tasks is pinned high
// enough to force pair-granular blocks (group size 1): the default
// group size varies with the ensemble size, and blocks whose
// trajectory groups straddle different boundaries never share a
// content address.
func runDeltaAppend(h *Harness) error {
	seed := h.seedFor("delta-append")
	const baseCount, atoms, frames = 4, 24, 12
	const pairTasks = 4096
	jobsN := h.cfg.Jobs
	if jobsN > 12 {
		jobsN = 12 // pair count grows quadratically with the ensemble
	}
	baseSpec := psaSpec(jobs.EngineSerial, "pruned", baseCount, atoms, frames, seed)
	baseSpec.Tasks = pairTasks
	base, err := h.submitRetry(baseSpec)
	if err != nil {
		return err
	}
	if _, err := h.waitTerminal(base.ID); err != nil {
		return err
	}
	reused := 0
	err = h.parallel(h.cfg.Concurrency, jobsN, func(i int) error {
		spec := psaSpec(jobs.EngineSerial, "pruned", baseCount+1+i, atoms, frames, seed)
		spec.Tasks = pairTasks
		st, err := h.submitRetry(spec)
		if err != nil {
			return err
		}
		final, err := h.waitTerminal(st.ID)
		if err != nil {
			return err
		}
		if final.BlockHitRatio > 0 {
			h.mu.Lock()
			reused++
			h.mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return err
	}
	h.mu.Lock()
	n := len(h.accepted) - 1
	h.mu.Unlock()
	h.check("delta-jobs-reuse-blocks", reused == n, "%d/%d grown jobs had block_hit_ratio > 0", reused, n)
	return nil
}

// runFleetFanout spreads fleet-engine jobs across all four Hausdorff
// kernel methods with distinct seeds (the method is normalized out of
// the cache key, so identical seeds would collapse into cache hits
// instead of exercising the workers).
func runFleetFanout(h *Harness) error {
	seed := h.seedFor("fleet-fanout")
	methods := []string{"naive", "early-break", "pruned", "indexed"}
	return h.parallel(h.cfg.Concurrency, h.cfg.Jobs, func(i int) error {
		spec := psaSpec(jobs.EngineFleet, methods[i%len(methods)], 4, 24, 12, seed+uint64(i))
		spec.Tasks = 8
		st, err := h.submitRetry(spec)
		if err != nil {
			return err
		}
		if _, err := h.waitTerminal(st.ID); err != nil {
			return err
		}
		_, err = h.matrix(st.ID)
		return err
	})
}

// runCancelStorm submits slow jobs and races DELETE against them: even
// cancels fire immediately (mostly catching jobs still queued), odd
// cancels after a short delay (often catching them running). Every job
// must reach a terminal state — cancelled or done are both legal, the
// race is the point — and none may fail or hang.
func runCancelStorm(h *Harness) error {
	seed := h.seedFor("cancel-storm")
	return h.parallel(h.cfg.Concurrency, h.cfg.Jobs, func(i int) error {
		// Distinct seeds: a cache-hit submission completes instantly and
		// would turn the cancel race into a no-op. Slow specs (naive
		// kernel, long trajectories) keep jobs alive long enough for the
		// DELETE to land while they are still queued or running.
		spec := psaSpec(jobs.EngineSerial, "naive", 4, 64, 256, seed+uint64(i))
		st, err := h.submitRetry(spec)
		if err != nil {
			return err
		}
		if i%2 == 1 {
			time.Sleep(10 * time.Millisecond)
		}
		if err := h.cancel(st.ID); err != nil {
			return err
		}
		_, err = h.waitTerminal(st.ID, jobs.StateCancelled, jobs.StateDone)
		return err
	})
}

// runStreamMix submits in-memory/streamed twins of the same input in
// both orders. MaxResidentFrames is normalized out of the cache key —
// the streamed kernel is bit-identical to the in-memory one — so the
// second twin of each pair must be a whole-job cache hit.
func runStreamMix(h *Harness) error {
	seed := h.seedFor("stream-mix")
	pairs := h.cfg.Jobs / 2
	if pairs < 1 {
		pairs = 1
	}
	hits := 0
	err := h.parallel(h.cfg.Concurrency, pairs, func(i int) error {
		first := psaSpec(jobs.EngineSerial, "pruned", 4, 24, 16, seed+uint64(i))
		second := first
		if i%2 == 0 {
			second.MaxResidentFrames = 8 // in-memory first, streamed twin second
		} else {
			first.MaxResidentFrames = 8 // streamed first, in-memory twin second
		}
		st1, err := h.submitRetry(first)
		if err != nil {
			return err
		}
		if _, err := h.waitTerminal(st1.ID); err != nil {
			return err
		}
		st2, err := h.submitRetry(second)
		if err != nil {
			return err
		}
		if st2.CacheHit {
			h.mu.Lock()
			hits++
			h.mu.Unlock()
		}
		_, err = h.waitTerminal(st2.ID)
		return err
	})
	if err != nil {
		return err
	}
	h.check("stream-twin-cache-hit", hits == pairs, "%d/%d second twins were cache hits", hits, pairs)
	return nil
}

// runOverload bursts distinct slow jobs well past the queue depth —
// cache misses only, since whole-job hits legitimately bypass
// admission control — then probes the request-body bound with an
// oversized spec. The shared invariants audit the 429/413 bookkeeping;
// here the storm only has to produce pressure and then prove every
// accepted job still completes.
func runOverload(h *Harness) error {
	seed := h.seedFor("overload")
	if err := h.submitOversized(); err != nil {
		return err
	}
	var ids []string
	var idsMu sync.Mutex
	// Twice the configured job count, and deliberately slow specs (the
	// naive kernel over long trajectories): the burst must outlive its
	// own submission window, or the queue drains as fast as it fills
	// and the full-queue path never triggers.
	err := h.parallel(h.cfg.Concurrency, h.cfg.Jobs*2, func(i int) error {
		spec := psaSpec(jobs.EngineSerial, "naive", 4, 64, 256, seed+uint64(i))
		st, code, err := h.submit(spec)
		if err != nil || code != 202 {
			return err
		}
		idsMu.Lock()
		ids = append(ids, st.ID)
		idsMu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}
	if h.cfg.ExpectShedding {
		h.mu.Lock()
		shed := h.shed
		h.mu.Unlock()
		h.check("shedding-observed", shed > 0,
			"queue sized below harness concurrency yet %d requests were shed", shed)
	}
	// Now drain: every accepted submission must reach done — load
	// shedding may refuse work, but it must never lose accepted work.
	return h.parallel(h.cfg.Concurrency, len(ids), func(i int) error {
		_, err := h.waitTerminal(ids[i])
		return err
	})
}

// runChaos runs fleet jobs while (in the loadgate's topology) one worker
// is armed with MDTASK_FAULTS on fleet.unit.execute: slowdowns, failed
// units (nacked and requeued), and a mid-run worker crash (leases
// requeued by the failure detector). Every job must still complete
// bit-correctly; under Config.Chaos the invariants also demand scraped
// evidence that the faults actually fired.
func runChaos(h *Harness) error {
	seed := h.seedFor("chaos")
	jobsN := h.cfg.Jobs
	if jobsN > 12 {
		jobsN = 12 // each job fans out ~8 units through a deliberately degraded fleet
	}
	return h.parallel(h.cfg.Concurrency, jobsN, func(i int) error {
		spec := psaSpec(jobs.EngineFleet, "pruned", 4, 24, 12, seed+uint64(i))
		spec.Tasks = 8
		st, err := h.submitRetry(spec)
		if err != nil {
			return err
		}
		_, err = h.waitTerminal(st.ID)
		return err
	})
}
