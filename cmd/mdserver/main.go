// Command mdserver is the long-running analysis job service: a JSON
// HTTP API that accepts PSA and Leaflet Finder jobs, schedules them
// across the six engines (serial, spark, dask, mpi, pilot, fleet)
// through a bounded FIFO queue, and serves identical resubmissions
// from a content-addressed result cache.
//
// It also embeds the fleet coordinator: cmd/mdworker processes
// register against the same address and pull the work units of every
// `"engine":"fleet"` job over the worker protocol, so one mdserver
// plus N mdworkers is a complete multi-process deployment.
//
// Usage:
//
//	mdserver -addr :8077 -workers 2 -queue 64 -cache-bytes 268435456
//
// Endpoints:
//
//	POST   /v1/jobs              submit a job
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         status + progress + metrics
//	GET    /v1/jobs/{id}/result  result of a done job
//	DELETE /v1/jobs/{id}         cancel
//	GET    /v1/jobs/{id}/trace   job trace as Chrome trace_event JSON
//	GET    /v1/metrics           service-wide metrics
//	GET    /metrics              Prometheus text exposition
//	GET    /healthz              liveness probe
//	POST   /v1/workers[...]      fleet worker protocol (see internal/fleet)
//	GET    /v1/fleet             fleet coordinator stats
//
// Observability: -trace=off disables span collection (metrics stay
// on), -debug-addr serves net/http/pprof on a side listener, and
// -version prints the build identity. The process logs its lifecycle
// (listening, journal recovery, shutdown) to stderr and nothing per
// request: each request is counted, timed and, when it continues a
// trace, spanned on /metrics and /v1/jobs/{id}/trace instead.
//
// Durability: -data-dir enables a write-ahead job journal in that
// directory — acknowledged jobs survive SIGKILL and are re-run from
// their specs on the next boot against the same directory (see the
// "Durability & recovery" section of the README). -fsync picks the
// journal's fsync policy (always|never).
//
// Example:
//
//	curl -s localhost:8077/v1/jobs -d \
//	  '{"analysis":"psa","engine":"fleet","synth":{"count":4,"atoms":16,"frames":8}}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served at -debug-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"mdtask/internal/blockstore"
	"mdtask/internal/faultinject"
	"mdtask/internal/fleet"
	"mdtask/internal/jobs"
	"mdtask/internal/obs"
	"mdtask/internal/wal"
)

func main() {
	var (
		addr       = flag.String("addr", ":8077", "listen address")
		workers    = flag.Int("workers", 2, "concurrent job limit")
		queue      = flag.Int("queue", 64, "queued-job limit")
		cacheBytes = flag.Int64("cache-bytes", blockstore.DefaultMaxBytes, "result-store byte budget (block + whole-job entries, LRU-evicted)")
		retain     = flag.Int("retain", 4096, "finished-job records retained (oldest evicted beyond this)")
		maxSpec    = flag.Int64("max-spec-bytes", jobs.DefaultMaxSpecBytes, "POST /v1/jobs request-body bound; larger submissions answer 413")
		dataDir    = flag.String("data-dir", "", "durable job-journal directory; jobs survive crashes and restarts (empty: memory-only)")
		fsync      = flag.String("fsync", "always", "journal fsync policy: always|never")

		fleetWorkers = flag.Int("fleet-workers", 0, "in-process fleet workers to attach (0: external mdworkers only)")
		leaseTTL     = flag.Duration("fleet-lease-ttl", 15*time.Second, "fleet work-unit lease before requeue")
		hbTTL        = flag.Duration("fleet-heartbeat-ttl", 5*time.Second, "fleet worker silence before its leases requeue")
		sweep        = flag.Duration("fleet-sweep", 500*time.Millisecond, "fleet failure-detector period")

		trace     = flag.String("trace", "on", "span collection: on|off (metrics are always on)")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty: disabled)")
		version   = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("mdserver", obs.Version())
		return
	}
	cfg := serverConfig{
		addr: *addr, workers: *workers, queue: *queue, retain: *retain,
		cacheBytes:   *cacheBytes,
		maxSpecBytes: *maxSpec,
		dataDir:      *dataDir,
		fsync:        *fsync,
		fleetWorkers: *fleetWorkers,
		fleetOpts:    fleet.Options{LeaseTTL: *leaseTTL, HeartbeatTTL: *hbTTL, SweepEvery: *sweep},
		traceOn:      *trace != "off",
		debugAddr:    *debugAddr,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "mdserver:", err)
		os.Exit(1)
	}
}

// serverConfig carries the resolved flags.
type serverConfig struct {
	addr                   string
	workers, queue, retain int
	cacheBytes             int64
	maxSpecBytes           int64
	dataDir                string
	fsync                  string
	fleetWorkers           int
	fleetOpts              fleet.Options
	traceOn                bool
	debugAddr              string
	// onReady, when non-nil, receives the bound listen address once the
	// server is accepting requests (test hook).
	onReady func(net.Addr)
}

// selfURL derives the base URL in-process fleet workers dial: the
// bound host when the listener is on a specific interface, loopback
// for wildcard binds (0.0.0.0/[::]).
func selfURL(addr net.Addr) (string, error) {
	host, port, err := net.SplitHostPort(addr.String())
	if err != nil {
		return "", err
	}
	ip := net.ParseIP(host)
	if host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port), nil
}

// buildHandler wires the jobs API, the fleet worker protocol, and the
// Prometheus exposition into one mux (shared with the in-process
// server test), wrapped in the standard instrumentation middleware
// (per-endpoint metrics, inbound-traceparent spans).
func buildHandler(sched *jobs.Scheduler, coord *fleet.Coordinator, jo jobs.ServerOptions) http.Handler {
	fh := coord.Handler()
	mux := http.NewServeMux()
	mux.Handle("/v1/workers", fh)
	mux.Handle("/v1/workers/", fh)
	mux.Handle("/v1/fleet", fh)
	mux.Handle("/v1/fleet/", fh)
	mux.Handle("/metrics", sched.Obs().Metrics.Handler())
	mux.Handle("/", jobs.NewServerWith(sched, jo))
	return obs.Middleware(mux, sched.Obs(), "mdserver")
}

// run serves until ctx is cancelled (main cancels on SIGINT/SIGTERM)
// or the listener fails.
func run(ctx context.Context, cfg serverConfig) error {
	// One content-addressed result store spans the whole process: the
	// scheduler's whole-job entries, every in-process engine's block
	// entries, and the fleet coordinator's unit prefill/record all share
	// it, so work cached by any path is visible to every other.
	store := blockstore.New(cfg.cacheBytes)
	// One observability bundle spans the process: the scheduler's job
	// spans, the coordinator's fleet spans (plus the worker spans it
	// imports), and every metric series share it, so /metrics and
	// /v1/jobs/{id}/trace each tell the whole story.
	ob := obs.New("mdserver")
	if !cfg.traceOn {
		ob = obs.NoTrace()
	}
	obs.RegisterRuntimeMetrics(ob.Metrics)
	obs.RegisterBuildInfo(ob.Metrics, "mdserver")
	// Env-gated fault points (MDTASK_FAULTS) — inert in production, they
	// let the crash-recovery tests and smoke script break the journal at
	// chosen record boundaries.
	if err := faultinject.ActivateFromEnv(); err != nil {
		return err
	}
	if faultinject.Enabled() {
		log.Printf("mdserver fault injection armed: %s=%s", faultinject.EnvVar, os.Getenv(faultinject.EnvVar))
	}
	// The durable job journal (optional): every lifecycle transition is
	// written through it, and on boot the previous process's jobs are
	// replayed — terminal ones as status-only records, queued/running
	// ones re-enqueued and re-run from their specs.
	var journal *jobs.WALStore
	var recovered *jobs.Recovered
	if cfg.dataDir != "" {
		pol, err := wal.ParseSyncPolicy(cfg.fsync)
		if err != nil {
			return err
		}
		ws, rec, err := jobs.OpenWALStore(jobs.WALStoreOptions{Dir: cfg.dataDir, Sync: pol})
		if err != nil {
			return fmt.Errorf("opening job journal in %s: %w", cfg.dataDir, err)
		}
		defer ws.Close()
		ws.RegisterMetrics(ob.Metrics)
		journal, recovered = ws, rec
	}
	fleetOpts := cfg.fleetOpts
	fleetOpts.BlockStore = store
	fleetOpts.Tracer = ob.Tracer
	coord := fleet.NewCoordinator(fleetOpts)
	defer coord.Close()
	sched := jobs.NewScheduler(jobs.RegistryWithFleet(coord), jobs.Options{
		Workers:    cfg.workers,
		QueueDepth: cfg.queue,
		BlockStore: store,
		MaxJobs:    cfg.retain,
		Obs:        ob,
		Journal:    journal,
	})
	if journal != nil {
		sched.Recover()
		requeued := 0
		for _, j := range recovered.Jobs {
			if !j.State.Terminal() {
				requeued++
			}
		}
		log.Printf("mdserver journal %s: recovered %d job(s) (%d re-enqueued), replayed=%d skipped=%d skipped_bytes=%d unreplayable=%d clean_shutdown=%v",
			cfg.dataDir, len(recovered.Jobs), requeued,
			recovered.Replayed, recovered.Skipped, recovered.SkippedBytes, recovered.Unreplayable, recovered.CleanShutdown)
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	if cfg.debugAddr != "" {
		dln, derr := net.Listen("tcp", cfg.debugAddr)
		if derr != nil {
			return derr
		}
		defer dln.Close()
		// The blank net/http/pprof import registered /debug/pprof on the
		// default mux; serve it on the side listener only.
		dsrv := obs.NewHTTPServer(http.DefaultServeMux)
		go func() { _ = dsrv.Serve(dln) }()
		log.Printf("mdserver pprof on %s/debug/pprof/", dln.Addr())
	}
	srv := obs.NewHTTPServer(buildHandler(sched, coord, jobs.ServerOptions{MaxSpecBytes: cfg.maxSpecBytes}))

	// Serve before anything dials in: the in-process fleet workers
	// below register over real HTTP against this very listener.
	errc := make(chan error, 1)
	go func() {
		log.Printf("mdserver listening on %s (workers=%d queue=%d cache-bytes=%d fleet-workers=%d)",
			ln.Addr(), cfg.workers, cfg.queue, cfg.cacheBytes, cfg.fleetWorkers)
		errc <- srv.Serve(ln)
	}()

	// Optional in-process fleet workers, so a single mdserver can
	// complete fleet jobs without external mdworker processes.
	var locals []*fleet.Worker
	if cfg.fleetWorkers > 0 {
		base, err := selfURL(ln.Addr())
		if err != nil {
			return err
		}
		for i := 0; i < cfg.fleetWorkers; i++ {
			w, err := fleet.StartWorker(fleet.WorkerOptions{
				Coordinator: base,
				Name:        fmt.Sprintf("mdserver-local-%d", i),
				Logf:        log.Printf,
			})
			if err != nil {
				return fmt.Errorf("starting in-process fleet worker: %w", err)
			}
			locals = append(locals, w)
		}
	}
	defer func() {
		for _, w := range locals {
			w.Close()
		}
	}()
	if cfg.onReady != nil {
		cfg.onReady(ln.Addr())
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("mdserver shutting down")
	// Drain before anything else: admission stops (new submissions get
	// 503), idle workers exit instead of picking up queued jobs, and
	// queued jobs stay journaled as queued so the next boot re-enqueues
	// them. Jobs the coordinator aborts below stay `running` in the
	// journal (drain suppresses their shutdown-artefact failures) and
	// likewise re-run on the next boot.
	sched.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	// The listener is gone, so no worker can lease or post another
	// unit: close the coordinator first, aborting any in-flight fleet
	// job (its scheduler runner fails with ErrClosed and unblocks) —
	// otherwise sched.Close would wait forever on a fleet job whose
	// workers can no longer reach us.
	coord.Close()
	// Close waits the worker pool out, then journals the clean-shutdown
	// marker: every transition above is durable before we exit.
	sched.Close()
	return nil
}
