package loadgen

import (
	"bytes"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"mdtask/internal/faultinject"
	"mdtask/internal/fleet"
	"mdtask/internal/jobs"
)

// The gates boot their processes on ephemeral loopback ports, so they
// run side by side. smoke-serve and smoke-cache also have a run body:
// their checks alone, against any fresh server (tier-1 runs them
// in-process); the other gates' checks interleave with process kills.

// fleetTTLs are the short failure-detector timings of the gates that
// kill a worker or the server: a dead process's leases requeue within
// seconds.
var fleetTTLs = []string{"-fleet-lease-ttl", "3s", "-fleet-heartbeat-ttl", "1500ms", "-fleet-sweep", "100ms"}

// bootTimeout bounds every bring-up wait: a process logging its
// address, /healthz answering, workers (re-)registering.
const bootTimeout = 30 * time.Second

// errNote renders a failed step's error for an invariant's detail.
func errNote(err error) string {
	if err == nil {
		return ""
	}
	return ": " + err.Error()
}

// gateRun is one gate's state: the invariants the gate checks itself
// land on h, the harness of the first server it starts; reports holds
// the load scenarios it ran.
type gateRun struct {
	cfg     Config
	sup     *Supervisor
	name    string
	h       *Harness
	reports []*Report
}

// RunGate boots the named gate's processes under sup, runs its checks
// and returns one report per leg (the loadgate has two: the load suite,
// then the chaos leg), the gate's own invariants last. sup is closed,
// every child reaped, before it returns; its logs stay readable. The
// error is non-nil when the gate could not run to its end.
func RunGate(cfg Config, name string, sup *Supervisor) ([]*Report, error) {
	defer sup.Close()
	sc, ok := Lookup(name)
	if !ok || sc.gate == nil {
		return nil, fmt.Errorf("loadgen: %q is not a gate (use -list)", name)
	}
	start := time.Now()
	g := &gateRun{cfg: cfg.withDefaults(), sup: sup, name: name}
	err := sc.gate(g)
	if g.h != nil && len(g.h.extra) > 0 {
		sr := ScenarioReport{Scenario: name, Description: sc.Description,
			ElapsedMS: time.Since(start).Milliseconds(), Invariants: g.h.extra}
		if len(g.reports) == 0 {
			g.reports = []*Report{{Benchmark: "mdserver-load", Server: g.h.base, Seed: g.cfg.Seed, OK: true}}
		}
		last := g.reports[len(g.reports)-1]
		last.Scenarios = append(last.Scenarios, sr)
		last.OK = last.OK && sr.OK()
	}
	return g.reports, err
}

// server starts mdserver on addr (127.0.0.1:0 for a fresh port) with
// args and waits until /healthz answers.
func (g *gateRun) server(addr string, args ...string) (*proc, *Harness, error) {
	p, err := g.sup.start("mdserver", nil, append([]string{"-addr", addr}, args...)...)
	if err != nil {
		return nil, nil, err
	}
	if addr, err = p.addr(bootTimeout); err != nil {
		return nil, nil, err
	}
	cfg := g.cfg
	cfg.Server = "http://" + addr
	h := newHarness(cfg)
	if g.h == nil {
		g.h = h
	}
	return p, h, h.waitHealthy(bootTimeout)
}

// worker starts an mdworker pulling from the server behind h.
func (g *gateRun) worker(h *Harness, name string, env []string, args ...string) (*proc, error) {
	return g.sup.start("mdworker", env, append([]string{"-coordinator", h.base, "-name", name}, args...)...)
}

// workers starts one mdworker per name and waits until the coordinator
// lists exactly those workers.
func (g *gateRun) workers(h *Harness, names ...string) ([]*proc, error) {
	var ps []*proc
	for _, n := range names {
		p, err := g.worker(h, n, nil)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, h.waitWorkers(len(names))
}

// waitWorkers waits until the coordinator lists n workers under n
// distinct names. A worker (re-)registers on its next heartbeat, so
// the bound reports a broken registration; it paces nothing.
func (h *Harness) waitWorkers(n int) error {
	_, err := h.waitFleet(fmt.Sprintf("%d distinct workers registered", n), bootTimeout, func(v fleet.StatsView) bool {
		seen := make(map[string]bool)
		for _, w := range v.WorkerList {
			seen[w.Name] = true
		}
		return v.Workers == n && len(seen) == n
	})
	return err
}

// suite runs load scenarios against the server behind h, with h's
// configuration, and keeps their report.
func (g *gateRun) suite(h *Harness, names ...string) error {
	rep, err := Run(h.cfg, names)
	if rep != nil {
		g.reports = append(g.reports, rep)
	}
	return err
}

// bootOne is the gate of a scenario whose run body needs only a fresh
// mdserver started with args.
func bootOne(args ...string) func(*gateRun) error {
	return func(g *gateRun) error {
		_, h, err := g.server("127.0.0.1:0", args...)
		if err != nil {
			return err
		}
		return g.suite(h, g.name)
	}
}

// await waits for job id to end and records name-done: it reached done.
func (h *Harness) await(name, id string) (jobs.Status, error) {
	st, err := h.waitTerminal(id)
	if err != nil {
		return st, err
	}
	h.check(name+"-done", st.State == jobs.StateDone, "job %s ended %s %s", id, st.State, st.Error)
	return st, nil
}

// runJob submits spec, waits for it to end and records name-done.
func (h *Harness) runJob(name string, spec jobs.Spec) (jobs.Status, error) {
	st, err := h.submitRetry(spec)
	if err != nil {
		return st, err
	}
	return h.await(name, st.ID)
}

// runSmokeServe is the smoke-serve checks: the server is healthy, and a
// tiny synth PSA job on dask runs to done and serves its result.
func runSmokeServe(h *Harness) error {
	code, _, err := h.get("/healthz")
	h.check("healthz-200", code == http.StatusOK, "GET /healthz answered %d%s", code, errNote(err))
	st, err := h.runJob("job", psaSpec(jobs.EngineDask, "", 3, 8, 4, 0))
	if err != nil {
		return err
	}
	code, _, err = h.get("/v1/jobs/" + st.ID + "/result")
	h.check("result-200", code == http.StatusOK, "GET /v1/jobs/%s/result answered %d%s", st.ID, code, errNote(err))
	return nil
}

// runSmokeCache is the smoke-cache checks, against a fresh server: a
// 4-trajectory synth PSA job (pair-granular blocks: 10) misses every
// block; the same job grown by one trajectory (15 blocks) hits the 10
// shared blocks, computes the 5 new ones and evaluates only the new
// trajectory's 4 comparisons, 4 × 2F² = 128 directed frame pairs at
// F = 4; and /v1/metrics tells the same story service-wide: 10 block
// hits, 17 entries (15 blocks and 2 whole-job results), bytes saved.
func runSmokeCache(h *Harness) error {
	spec := func(count int) jobs.Spec {
		s := psaSpec(jobs.EngineSerial, "", count, 8, 4, 42)
		s.Tasks = 64
		return s
	}
	base, err := h.runJob("base-job", spec(4))
	if err != nil {
		return err
	}
	m := base.Metrics
	h.check("base-block-hits-0", m.BlockCacheHits == 0, "block_cache_hits %d, want 0", m.BlockCacheHits)
	h.check("base-block-misses-10", m.BlockCacheMisses == 10, "block_cache_misses %d, want 10", m.BlockCacheMisses)
	grown, err := h.runJob("delta-job", spec(5))
	if err != nil {
		return err
	}
	m = grown.Metrics
	h.check("delta-block-hits-10", m.BlockCacheHits == 10, "block_cache_hits %d, want 10", m.BlockCacheHits)
	h.check("delta-block-misses-5", m.BlockCacheMisses == 5, "block_cache_misses %d, want 5", m.BlockCacheMisses)
	h.check("delta-pairs-evaluated-128", m.PairsEvaluated == 128, "pairs_evaluated %d, want 128", m.PairsEvaluated)
	h.check("delta-block-hit-ratio", grown.BlockHitRatio == 10.0/15, "block_hit_ratio %g, want 10/15", grown.BlockHitRatio)
	s, err := h.snapshot()
	if err != nil {
		return err
	}
	bc := s.svc.BlockCache
	h.check("service-block-hits-10", bc.Hits == 10, "block_cache.hits %d, want 10", bc.Hits)
	h.check("service-block-entries-17", bc.Entries == 17, "block_cache.entries %d, want 17", bc.Entries)
	h.check("service-bytes-saved", bc.BytesSaved > 0, "block_cache.bytes_saved %d, want > 0", bc.BytesSaved)
	return nil
}

// killMidRun polls the job id on h until it runs and ready says a kill
// now lands mid-run, then SIGKILLs p and records kill-mid-run. A job
// that ends first means it is sized wrong for the box: the gate fails
// rather than skip the failure path.
func (h *Harness) killMidRun(id string, p *proc, ready func(jobs.Status, fleet.StatsView) bool) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := h.status(id)
		if err != nil {
			return err
		}
		v, err := h.fleetView()
		if err != nil {
			return err
		}
		if st.State == jobs.StateRunning && ready(st, v) {
			p.kill()
			h.check("kill-mid-run", true, "SIGKILLed %s with job %s running, %d task(s) done", p.label, id, st.TasksDone)
			return nil
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			h.check("kill-mid-run", false, "job %s was %s before %s could be killed mid-run", id, st.State, p.label)
			return fmt.Errorf("loadgen: no mid-run kill of %s", p.label)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// submitPair submits the job smoke-fleet and smoke-crash kill a
// process under — ten blocks of several hundred ms each on two workers
// (the kernel is O(frames²) per pair), so the kill lands mid-run — as
// the serial reference to ref and on the fleet to h.
func submitPair(h, ref *Harness) (serial, job string, err error) {
	spec := psaSpec(jobs.EngineSerial, "", 8, 128, 640, 42)
	spec.Parallelism, spec.Tasks = 2, 16
	st, err := ref.submitRetry(spec)
	if err != nil {
		return "", "", err
	}
	spec.Engine = jobs.EngineFleet
	fl, err := h.submitRetry(spec)
	return st.ID, fl.ID, err
}

// sameMatrix waits for the serial reference serialID on ref and records
// serial-job-done and matrix-equals-serial: the fleet job's matrix on h
// is byte-equal to the reference's. The reference runs on a second,
// cold server because the block store is shared across engines: on one
// server whichever job ran second would be served the first one's
// blocks.
func (h *Harness) sameMatrix(fleetID string, ref *Harness, serialID string) error {
	st, err := ref.waitTerminal(serialID)
	if err != nil {
		return err
	}
	h.check("serial-job-done", st.State == jobs.StateDone, "job %s ended %s %s", serialID, st.State, st.Error)
	a, errA := h.matrix(fleetID)
	b, errB := ref.matrix(serialID)
	h.check("matrix-equals-serial", errA == nil && errB == nil && len(a) > 0 && bytes.Equal(a, b),
		"fleet matrix %d bytes%s, serial %d bytes%s", len(a), errNote(errA), len(b), errNote(errB))
	return nil
}

// gateFleet is smoke-fleet: mdserver, a reference mdserver and two
// mdworkers; worker 1 is SIGKILLed while it holds a lease, and the
// fleet job must still finish, its lease requeued onto the survivor,
// with the serial reference's matrix; the coordinator must count the
// dead worker lost.
func gateFleet(g *gateRun) error {
	_, h, err := g.server("127.0.0.1:0", append([]string{"-workers", "2"}, fleetTTLs...)...)
	if err != nil {
		return err
	}
	_, ref, err := g.server("127.0.0.1:0", "-workers", "2")
	if err != nil {
		return err
	}
	ws, err := g.workers(h, "smoke-w1", "smoke-w2")
	if err != nil {
		return err
	}
	serial, job, err := submitPair(h, ref)
	if err != nil {
		return err
	}
	// The lease worker 1 dies holding must be requeued for the job to end.
	err = h.killMidRun(job, ws[0], func(_ jobs.Status, v fleet.StatsView) bool {
		for _, w := range v.WorkerList {
			if w.Name == "smoke-w1" && w.ActiveLeases >= 1 {
				return true
			}
		}
		return false
	})
	if err != nil {
		return err
	}
	if _, err := h.await("fleet-job", job); err != nil {
		return err
	}
	v, err := h.waitFleet("killed worker counted lost", bootTimeout, func(v fleet.StatsView) bool { return v.WorkersLost >= 1 })
	h.check("workers-lost", err == nil, "workers_lost %d, requeues %d", v.WorkersLost, v.Requeues)
	return h.sameMatrix(job, ref, serial)
}

// gateCrash is smoke-crash: mdserver with a -data-dir journal, a
// reference mdserver and two mdworkers; mdserver is SIGKILLed with the
// fleet job mid-run and restarted on the same address and journal.
// Zero jobs may be lost: the job is listed under its id, re-runs from
// its journaled spec to the serial reference's matrix, both workers
// re-register under their own names, and /metrics shows the recovery.
func gateCrash(g *gateRun) error {
	args := append([]string{"-workers", "2", "-data-dir", filepath.Join(g.sup.tmp, "data")}, fleetTTLs...)
	srv, h, err := g.server("127.0.0.1:0", args...)
	if err != nil {
		return err
	}
	_, ref, err := g.server("127.0.0.1:0", "-workers", "2")
	if err != nil {
		return err
	}
	if _, err := g.workers(h, "smoke-crash-w1", "smoke-crash-w2"); err != nil {
		return err
	}
	serial, job, err := submitPair(h, ref)
	if err != nil {
		return err
	}
	// No drain, no shutdown marker: the journal simply stops.
	if err := h.killMidRun(job, srv, func(st jobs.Status, _ fleet.StatsView) bool { return st.TasksDone >= 1 }); err != nil {
		return err
	}
	if _, _, err := g.server(strings.TrimPrefix(h.base, "http://"), args...); err != nil {
		return err
	}
	h.hc.CloseIdleConnections()
	var list []jobs.Status
	err = h.getJSON("/v1/jobs", &list)
	h.check("jobs-after-restart-1", err == nil && len(list) == 1, "%d job(s) after the restart, want 1%s", len(list), errNote(err))
	_, err = h.status(job)
	h.check("job-kept-id", err == nil, "GET /v1/jobs/%s after the restart%s", job, errNote(err))
	if _, err := h.await("fleet-job", job); err != nil {
		return err
	}
	// The ids the dead coordinator issued carry its incarnation tag, so
	// the new one answers 404 to both orphans and each re-registers.
	err = h.waitWorkers(2)
	h.check("workers-reregistered-2", err == nil, "2 distinct worker names again%s", errNote(err))
	if err := h.sameMatrix(job, ref, serial); err != nil {
		return err
	}
	pm, _, err := h.scrape(h.base)
	recovered, _ := pm.Value("mdtask_jobs_recovered_total")
	replayed, _ := pm.Value("mdtask_wal_records_replayed_total")
	skipped, found := pm.Value("mdtask_wal_records_skipped_total")
	h.check("jobs-recovered", recovered >= 1, "mdtask_jobs_recovered_total %g, want >= 1%s", recovered, errNote(err))
	h.check("wal-records-replayed", replayed >= 1, "mdtask_wal_records_replayed_total %g, want >= 1", replayed)
	h.check("wal-records-skipped-zero", found && skipped == 0, "mdtask_wal_records_skipped_total %g (exposed %v), want 0", skipped, found)
	return nil
}

// gateObs is smoke-obs: mdserver (tracing on, JSON logs) and two
// mdworkers serving /metrics; one serial job, then one fleet job on
// another seed (a same-seed fleet job would be served from the block
// cache and lease no unit), then checkObs.
func gateObs(g *gateRun) error {
	_, h, err := g.server("127.0.0.1:0", "-workers", "2", "-log-format", "json",
		"-fleet-lease-ttl", "5s", "-fleet-heartbeat-ttl", "2s", "-fleet-sweep", "100ms")
	if err != nil {
		return err
	}
	var metrics []string
	for _, n := range []string{"smoke-obs-w1", "smoke-obs-w2"} {
		p, err := g.worker(h, n, nil, "-metrics-addr", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addr, err := p.addr(bootTimeout)
		if err != nil {
			return err
		}
		metrics = append(metrics, "http://"+addr)
	}
	if err := h.waitWorkers(2); err != nil {
		return err
	}
	spec := func(engine string, seed uint64) jobs.Spec {
		s := psaSpec(engine, "", 6, 32, 24, seed)
		s.Parallelism, s.Tasks = 2, 8
		return s
	}
	if _, err := h.runJob("serial-job", spec(jobs.EngineSerial, 1)); err != nil {
		return err
	}
	job, err := h.runJob("fleet-job", spec(jobs.EngineFleet, 42))
	if err != nil {
		return err
	}
	return h.checkObs(job.ID, 2, metrics)
}

// checkObs is the smoke-obs checks on the server behind h, after
// `submissions` jobs, the last of them fleetID on the fleet engine,
// with workers serving /metrics at workerURLs: every exposition parses
// with the version 0.0.4 Content-Type, the key series are there, the
// POST /v1/jobs counter and histogram equal the submissions, and the
// fleet job's Chrome trace spans both processes under one trace id
// with every worker.kernel span parented under a fleet.lease span.
func (h *Harness) checkObs(fleetID string, submissions float64, workerURLs []string) error {
	has := func(name string, pm PromMetrics, metric string, labels ...string) {
		_, ok := pm.sum(metric, labels...)
		h.check(name, ok, "%s{%s} exposed %v", metric, strings.Join(labels, ","), ok)
	}
	equal := func(name string, pm PromMetrics, metric string, labels ...string) {
		v, ok := pm.sum(metric, labels...)
		h.check(name, ok && v == submissions, "%s{%s} = %g, want %g", metric, strings.Join(labels, ","), v, submissions)
	}
	srv, ctype, err := h.scrape(h.base)
	h.check("server-exposition-parses", err == nil, "mdserver /metrics%s", errNote(err))
	h.check("metrics-content-type", strings.HasPrefix(ctype, "text/plain; version=0.0.4"),
		"Content-Type %q, want text/plain; version=0.0.4", ctype)
	has("server-build-info", srv, "mdtask_build_info", `service="mdserver"`)
	equal("jobs-submitted", srv, "mdtask_jobs_submitted_total")
	equal("jobs-completed-done", srv, "mdtask_jobs_completed_total", `state="done"`)
	equal("queue-wait-count", srv, "mdtask_job_queue_wait_seconds_count")
	has("fleet-run-histogram", srv, "mdtask_job_run_seconds_bucket", `engine="fleet"`)
	has("go-goroutines", srv, "go_goroutines")
	equal("post-jobs-202-count", srv, "mdtask_http_requests_total", `method="POST"`, `path="/v1/jobs"`, `code="202"`)
	equal("post-jobs-histogram-count", srv, "mdtask_http_request_duration_seconds_count", `method="POST"`, `path="/v1/jobs"`)
	// Which worker leases the handful of units is a race — one of them
	// can run none — so the kernel count is summed over both.
	kernels := 0.0
	for i, u := range workerURLs {
		pm, _, err := h.scrape(u)
		h.check(fmt.Sprintf("worker%d-exposition-parses", i+1), err == nil, "%s/metrics%s", u, errNote(err))
		if i == 0 {
			has("worker-build-info", pm, "mdtask_build_info", `service="mdworker"`)
			n, _ := pm.sum("mdtask_fleet_lease_roundtrip_seconds_count")
			h.check("worker-lease-roundtrips", n >= 1, "mdtask_fleet_lease_roundtrip_seconds_count %g, want >= 1", n)
		}
		k, _ := pm.sum("mdtask_block_kernel_seconds_count")
		kernels += k
	}
	h.check("worker-kernels", kernels >= 1, "mdtask_block_kernel_seconds_count over the workers %g, want >= 1", kernels)

	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := h.getJSON("/v1/jobs/"+fleetID+"/trace", &trace); err != nil {
		return err
	}
	arg := func(args map[string]any, k string) string { s, _ := args[k].(string); return s }
	ids, procs, names, leases := map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}
	var kernelParents []string
	for _, e := range trace.TraceEvents {
		switch e.Ph {
		case "M":
			procs[arg(e.Args, "name")] = true
		case "X":
			ids[arg(e.Args, "trace_id")] = true
			names[e.Name] = true
			switch e.Name {
			case "fleet.lease":
				leases[arg(e.Args, "span_id")] = true
			case "worker.kernel":
				kernelParents = append(kernelParents, arg(e.Args, "parent_id"))
			}
		}
	}
	h.check("trace-one-id", len(ids) == 1, "%d distinct trace ids, want 1", len(ids))
	h.check("trace-both-processes", procs["mdserver"] && procs["mdworker"], "processes %v, want mdserver and mdworker", procs)
	var missing []string
	for _, n := range []string{"job", "queue.wait", "run", "engine.fleet", "fleet.job", "fleet.record"} {
		if !names[n] {
			missing = append(missing, n)
		}
	}
	h.check("trace-span-chain", len(missing) == 0, "spans missing: %v", missing)
	orphans := 0
	for _, p := range kernelParents {
		if !leases[p] {
			orphans++
		}
	}
	h.check("trace-kernels-under-leases", len(kernelParents) > 0 && orphans == 0,
		"%d of %d worker.kernel spans not under a fleet.lease span", orphans, len(kernelParents))
	st, err := h.status(fleetID)
	h.check("status-trace-id", err == nil && len(ids) == 1 && ids[st.TraceID], "status trace_id %q, export %v", st.TraceID, ids)
	return nil
}

// chaosFaults arms the loadgate's chaos worker at fleet.unit.execute:
// its first unit is slowed, its second fails (a failure nack, requeued
// at once), its fourth crashes the process (exit 137; the heartbeat
// failure detector requeues its leases).
const chaosFaults = "fleet.unit.execute=sleep:50ms@1,fleet.unit.execute=error@2,fleet.unit.execute=crash@4"

// gateLoad is the loadgate: mdserver with a journal and a queue of 4,
// below the suite's 8 clients so overload must provoke real 429s, and
// two healthy mdworkers run the load suite. Then the healthy workers
// deregister and one chaos-armed worker takes the chaos scenario's
// first units alone — its faults fire by unit count, and beside two
// healthy workers it often leased none — until it crashes; two fresh
// workers finish every job, the dead worker's requeued lease included.
func gateLoad(g *gateRun) error {
	_, h, err := g.server("127.0.0.1:0", append([]string{"-workers", "2", "-queue", "4",
		"-data-dir", filepath.Join(g.sup.tmp, "data")}, fleetTTLs...)...)
	if err != nil {
		return err
	}
	ws, err := g.workers(h, "loadgate-w1", "loadgate-w2")
	if err != nil {
		return err
	}
	h.cfg.Jobs, h.cfg.Concurrency = 24, 8
	h.cfg.ExpectShedding, h.cfg.RequireWorkers = true, true
	if err := g.suite(h, "resubmit-storm", "delta-append", "fleet-fanout", "cancel-storm", "stream-mix", "overload"); err != nil {
		return err
	}
	for _, w := range ws {
		w.stop()
	}
	if err := h.waitWorkers(0); err != nil {
		return err
	}
	chaos, err := g.worker(h, "loadgate-chaos", []string{faultinject.EnvVar + "=" + chaosFaults})
	if err != nil {
		return err
	}
	if err := h.waitWorkers(1); err != nil {
		return err
	}
	h.cfg.Jobs, h.cfg.Concurrency = 12, 4
	h.cfg.ExpectShedding, h.cfg.Chaos = false, true
	// The leg's report comes back over done, so only this goroutine
	// touches g.reports, even when it returns early.
	type leg struct {
		rep *Report
		err error
	}
	done := make(chan leg, 1)
	go func() {
		rep, err := Run(h.cfg, []string{"chaos"})
		done <- leg{rep, err}
	}()
	// The armed worker must die at its fourth unit (crash@4): the
	// killed-worker path ran, not just the nack path.
	code, exited := chaos.wait(bootTimeout)
	h.check("chaos-worker-exit-137", exited && code == 137, "chaos worker exited (%v) with code %d, want 137", exited, code)
	for _, n := range []string{"loadgate-w4", "loadgate-w5"} {
		if _, err := g.worker(h, n, nil); err != nil {
			return err
		}
	}
	l := <-done
	if l.err != nil {
		return l.err
	}
	g.reports = append(g.reports, l.rep)
	v, err := h.fleetView()
	h.check("workers-lost", err == nil && v.WorkersLost >= 1, "workers_lost %d, want >= 1%s", v.WorkersLost, errNote(err))
	return nil
}
