package fleet

import (
	"fmt"
	"net"
	"net/http"

	"mdtask/internal/obs"
)

// Local is an in-process fleet: a coordinator served over a loopback
// HTTP listener plus n workers pulling from it. `-engine fleet` on the
// CLIs (and the fleet property tests) run through a Local, so the full
// wire protocol — registration, heartbeats, leases, result posts — is
// exercised even without separate processes.
type Local struct {
	// C is the coordinator; submit jobs against it.
	C *Coordinator
	// URL is the coordinator's base URL.
	URL string

	srv     *http.Server
	workers []*Worker
}

// StartLocal boots a loopback coordinator with the given options and
// n workers (< 1: 1) attached to it.
func StartLocal(n int, opts Options) (*Local, error) {
	if n < 1 {
		n = 1
	}
	c := NewCoordinator(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("fleet: local listener: %w", err)
	}
	lf := &Local{
		C:   c,
		URL: "http://" + ln.Addr().String(),
		srv: obs.NewHTTPServer(c.Handler()),
	}
	go func() { _ = lf.srv.Serve(ln) }()
	for i := 0; i < n; i++ {
		wo := WorkerOptions{
			Coordinator: lf.URL,
			Name:        fmt.Sprintf("local-%d", i),
		}
		if opts.Tracer != nil {
			// A tracing coordinator gets tracing workers, so even an
			// ephemeral loopback fleet produces complete traces (the
			// worker-side spans ship back inside each unit result).
			wo.Obs = obs.New(wo.Name)
		}
		w, err := StartWorker(wo)
		if err != nil {
			lf.Close()
			return nil, err
		}
		lf.workers = append(lf.workers, w)
	}
	return lf, nil
}

// Close stops the workers (gracefully), the HTTP server, and the
// coordinator.
func (lf *Local) Close() {
	for _, w := range lf.workers {
		w.Close()
	}
	_ = lf.srv.Close()
	lf.C.Close()
}
