package fleet

import (
	"testing"
	"time"

	"mdtask/internal/engine"
	"mdtask/internal/psa"
	"mdtask/internal/stage"
	"mdtask/internal/traj"
)

// gatedPlan is a staged plan whose blob reads signal entered and then
// wait for gate, so a test can hold a read in flight.
type gatedPlan struct {
	stage.Plan
	entered, gate chan struct{}
}

func (p *gatedPlan) Blob(name string) ([]byte, error) {
	p.entered <- struct{}{}
	<-p.gate
	return p.Plan.Blob(name)
}

// TestDropWaitsForBlobReads: a blob read that found its job before
// Drop removed it is still encoding from the plan's input, so Drop
// returns only once that read has, and a read after Drop finds no job.
// The jobs layer reuses a generated input's memory as soon as the
// runner, and with it Drop, has returned.
func TestDropWaitsForBlobReads(t *testing.T) {
	c := NewCoordinator(LocalOptions())
	defer c.Close()
	inner, err := stage.PSA(traj.RefsOf(testEnsemble(2, 4, 3, 1)), 1, psa.Opts{Symmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := &gatedPlan{Plan: inner, entered: make(chan struct{}), gate: make(chan struct{})}
	job := submitPlan(t, c, plan, &engine.Metrics{})
	name := plan.Units()[0].Inputs[0]

	read := make(chan error, 1)
	go func() {
		_, err := c.blobOf(job.id, name)
		read <- err
	}()
	<-plan.entered
	dropped := make(chan struct{})
	go func() {
		c.Drop(job)
		close(dropped)
	}()
	select {
	case <-dropped:
		t.Fatal("Drop returned while a blob read of its job was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(plan.gate)
	if err := <-read; err != nil {
		t.Fatalf("the in-flight read failed: %v", err)
	}
	<-dropped
	if _, err := c.blobOf(job.id, name); err == nil {
		t.Fatal("a blob read after Drop found the job")
	}
}
