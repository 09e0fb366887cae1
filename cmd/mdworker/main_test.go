package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mdtask/internal/fleet"
	"mdtask/internal/psa"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// TestWorkerDrainsCoordinator points a worker built exactly as main
// builds it at a coordinator and checks it completes a PSA job.
func TestWorkerDrainsCoordinator(t *testing.T) {
	c := fleet.NewCoordinator(fleet.LocalOptions())
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	w, err := fleet.StartWorker(fleet.WorkerOptions{
		Coordinator:  ts.URL,
		Name:         defaultName(),
		Parallel:     2,
		RegisterWait: 5 * time.Second,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	ens := make(traj.Ensemble, 4)
	for i := range ens {
		ens[i] = synth.Walk("t", 6, 5, 8, uint64(i))
	}
	job, err := c.SubmitPSARefs(traj.RefsOf(ens), 2, psa.Opts{Symmetric: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Drop(job)
	if err := job.Wait(nil); err != nil {
		t.Fatal(err)
	}
	if w.UnitsDone.Load() == 0 {
		t.Error("worker completed no units")
	}
}

// TestRunRegisterTimeout checks run fails fast when no coordinator is
// listening.
func TestRunRegisterTimeout(t *testing.T) {
	err := run(fleet.WorkerOptions{
		Coordinator:  "http://127.0.0.1:1",
		Name:         "w",
		Parallel:     1,
		RegisterWait: 50 * time.Millisecond,
	}, "", "", "text")
	if err == nil || !strings.Contains(err.Error(), "registering") {
		t.Fatalf("got %v, want registration error", err)
	}
}

// TestSideServerConfigured is the regression test for the bare
// http.Serve the metrics and debug listeners used to run with: both
// must go through a configured http.Server with a ReadHeaderTimeout,
// matching mdserver and fleet.Local, so an idle connection that never
// sends a request line cannot pin a goroutine forever.
func TestSideServerConfigured(t *testing.T) {
	called := false
	srv := sideServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		called = true
		w.WriteHeader(http.StatusNoContent)
	}))
	if srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("sideServer ReadHeaderTimeout = %v, want > 0", srv.ReadHeaderTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent || !called {
		t.Fatalf("sideServer did not serve the wrapped handler (status %d, called %v)", resp.StatusCode, called)
	}
}

// TestDefaultName checks the derived worker name carries the pid.
func TestDefaultName(t *testing.T) {
	if name := defaultName(); !strings.Contains(name, "-") {
		t.Errorf("defaultName() = %q", name)
	}
}
