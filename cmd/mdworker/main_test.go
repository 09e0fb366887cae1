package main

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mdtask/internal/fleet"
	"mdtask/internal/obs"
	"mdtask/internal/psa"
	"mdtask/internal/stage"
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
	plan, err := stage.PSA(traj.RefsOf(ens), 2, psa.Opts{Symmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Submit(plan, nil, obs.SpanContext{})
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
	}, "", "")
	if err == nil || !strings.Contains(err.Error(), "registering") {
		t.Fatalf("got %v, want registration error", err)
	}
}

// TestDefaultName checks the derived worker name carries the pid.
func TestDefaultName(t *testing.T) {
	if name := defaultName(); !strings.Contains(name, "-") {
		t.Errorf("defaultName() = %q", name)
	}
}
