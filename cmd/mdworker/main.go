// Command mdworker is the fleet execution agent: it registers with a
// coordinator (cmd/mdserver), heartbeats, leases PSA/Leaflet work
// units over the pull-based HTTP protocol, runs them with the shared
// in-process kernels, and posts results back. Start as many as the
// hardware allows — on one machine or many — and kill any of them
// mid-job: the coordinator requeues their leased units, so no block is
// ever lost.
//
// Usage:
//
//	mdworker -coordinator http://127.0.0.1:8077 -parallel 2
//
// SIGINT/SIGTERM stop leasing, let in-flight units finish posting, and
// deregister gracefully; a hard kill is detected by the coordinator's
// heartbeat failure detector instead.
//
// Observability: -metrics-addr serves GET /metrics (Prometheus text)
// with per-unit kernel and lease round-trip histograms, -debug-addr
// serves net/http/pprof, and each executed unit's spans are shipped to
// the coordinator inside its result, parented under the lease that
// granted it — one trace covers both processes. The process logs its
// lifecycle (registration, listeners, drain) and any unit that fails
// or is rejected to stderr, and nothing per request.
package main

import (
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

	"mdtask/internal/faultinject"
	"mdtask/internal/fleet"
	"mdtask/internal/obs"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "http://127.0.0.1:8077", "coordinator base URL")
		name        = flag.String("name", defaultName(), "worker display name")
		parallel    = flag.Int("parallel", 1, "concurrent work-unit executors")
		wait        = flag.Duration("register-wait", 30*time.Second, "how long to retry the initial registration")

		ctlTimeout  = flag.Duration("control-timeout", 15*time.Second, "timeout for control-plane calls (register, heartbeat, lease, result post)")
		xferTimeout = flag.Duration("transfer-timeout", 2*time.Minute, "timeout for bulk input/window downloads")

		metricsAddr = flag.String("metrics-addr", "", "serve GET /metrics (Prometheus text) on this address (empty: disabled)")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty: disabled)")
		version     = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("mdworker", obs.Version())
		return
	}
	if err := faultinject.ActivateFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "mdworker:", err)
		os.Exit(1)
	}
	opts := fleet.WorkerOptions{
		Coordinator:     *coordinator,
		Name:            *name,
		Parallel:        *parallel,
		RegisterWait:    *wait,
		ControlTimeout:  *ctlTimeout,
		TransferTimeout: *xferTimeout,
		Logf:            log.Printf,
	}
	if err := run(opts, *metricsAddr, *debugAddr); err != nil {
		fmt.Fprintln(os.Stderr, "mdworker:", err)
		os.Exit(1)
	}
}

// defaultName derives a worker name from the host and pid.
func defaultName() string {
	host, err := os.Hostname()
	if err != nil {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

func run(opts fleet.WorkerOptions, metricsAddr, debugAddr string) error {
	ob := obs.New("mdworker")
	obs.RegisterRuntimeMetrics(ob.Metrics)
	obs.RegisterBuildInfo(ob.Metrics, "mdworker")
	if metricsAddr != "" {
		mln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			return err
		}
		defer mln.Close()
		mux := http.NewServeMux()
		mux.Handle("/metrics", ob.Metrics.Handler())
		srv := obs.NewHTTPServer(obs.Middleware(mux, ob, "mdworker"))
		go func() { _ = srv.Serve(mln) }()
		log.Printf("mdworker metrics on %s/metrics", mln.Addr())
	}
	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			return err
		}
		defer dln.Close()
		dsrv := obs.NewHTTPServer(http.DefaultServeMux)
		go func() { _ = dsrv.Serve(dln) }()
		log.Printf("mdworker pprof on %s/debug/pprof/", dln.Addr())
	}
	opts.Obs = ob
	w, err := fleet.StartWorker(opts)
	if err != nil {
		return err
	}
	log.Printf("mdworker %s (%s) pulling from %s with %d executor(s)", w.ID(), opts.Name, opts.Coordinator, opts.Parallel)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("mdworker %s draining (units done: %d)", w.ID(), w.UnitsDone.Load())
	w.Close()
	return nil
}
