package fleet

import (
	"encoding/json"
	"errors"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"mdtask/internal/faultinject"
	"mdtask/internal/psa"
	"mdtask/internal/stage"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// TestFailedUnitNackRequeues drives the nack protocol by hand: a
// worker that posts a Failed result hands its lease back, the unit is
// immediately re-leasable, and the coordinator accounts the failure.
// Both TTLs are far beyond the test runtime, so only the nack path can
// free the unit.
func TestFailedUnitNackRequeues(t *testing.T) {
	c, url := startCoordinator(t, Options{
		LeaseTTL:     30 * time.Second,
		HeartbeatTTL: 30 * time.Second,
		SweepEvery:   20 * time.Millisecond,
		PollEvery:    5 * time.Millisecond,
	})
	job := submitPSA(t, c, traj.RefsOf(testEnsemble(2, 4, 3, 7)), 1, psa.Opts{Symmetric: true}, nil)
	defer c.Drop(job)

	pc := newProtoClient(t, url)
	l := pc.lease()
	if l == nil {
		t.Fatal("no lease granted")
	}
	if code := pc.post(UnitResult{Lease: l.Lease, Job: l.Job, Unit: l.Unit, Failed: true, Error: "boom"}); code != http.StatusOK {
		t.Fatalf("failure nack: got %d, want 200", code)
	}
	// The unit must be back at the front of the queue right now — no
	// expiry, no failure detection, just the nack.
	l2 := pc.lease()
	if l2 == nil || l2.Unit != l.Unit {
		t.Fatalf("unit not requeued after nack: %+v", l2)
	}
	if l2.Lease == l.Lease {
		t.Fatal("nacked lease was reissued verbatim; want a fresh lease")
	}
	st := c.Stats()
	if st.UnitFailures != 1 {
		t.Errorf("unit failures = %d, want 1", st.UnitFailures)
	}
	if st.Requeues < 1 {
		t.Errorf("requeues = %d, want >= 1", st.Requeues)
	}
	// A second nack against the now-revoked lease is stale, not a
	// double requeue.
	if code := pc.post(UnitResult{Lease: l.Lease, Job: l.Job, Unit: l.Unit, Failed: true}); code != http.StatusConflict {
		t.Errorf("stale nack: got %d, want 409", code)
	}
}

// TestWorkerNacksFailedUnit is the end-to-end regression for the
// lease-pinning bug: a unit that fails on a live worker used to wait
// for lease expiry — which never fires, because the worker's own
// heartbeats renew every lease it holds — so the job hung for as long
// as the worker lived. With the nack the failed unit requeues
// immediately and the retry completes the job well inside the 30s TTL
// that would otherwise pin it.
func TestWorkerNacksFailedUnit(t *testing.T) {
	if err := faultinject.Activate("fleet.unit.execute=error@1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Deactivate()

	c, url := startCoordinator(t, Options{
		LeaseTTL:       30 * time.Second,
		HeartbeatTTL:   30 * time.Second,
		SweepEvery:     20 * time.Millisecond,
		HeartbeatEvery: 100 * time.Millisecond,
		PollEvery:      5 * time.Millisecond,
	})
	ens := testEnsemble(2, 4, 3, 11)
	opts := psa.Opts{Symmetric: true}
	want, err := psa.SerialRefs(traj.RefsOf(ens), opts)
	if err != nil {
		t.Fatal(err)
	}
	job := submitPSA(t, c, traj.RefsOf(ens), 1, opts, nil)
	defer c.Drop(job)

	w, err := StartWorker(WorkerOptions{Coordinator: url, Name: "flaky"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	start := time.Now()
	deadline := func() bool { return time.Since(start) > 15*time.Second }
	if err := job.Wait(deadline); err != nil {
		t.Fatalf("job did not complete after a failed unit: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("job took %s; the nack must beat the 30s lease TTL", elapsed)
	}
	if n := requeuesOf(job); n < 1 {
		t.Errorf("requeues = %d, want >= 1", n)
	}
	if st := c.Stats(); st.UnitFailures < 1 {
		t.Errorf("unit failures = %d, want >= 1", st.UnitFailures)
	}
	got := matrixOf(job)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("matrix differs from serial at %d after nacked retry", i)
		}
	}
}

// mixedAtomsPlan is a valid PSA plan whose one unit is rewritten to
// pair a 3-atom trajectory with a 4-atom one, description and blob
// alike: the unit's kernel then compares rows of different lengths and
// panics. stage.PSA refuses such an ensemble, so only a hand-built plan
// reaches a worker with one.
type mixedAtomsPlan struct {
	stage.Plan
	unit stage.Unit
	blob []byte // the unit's second input
}

func (p *mixedAtomsPlan) Units() []stage.Unit { return []stage.Unit{p.unit} }

func (p *mixedAtomsPlan) Blob(name string) ([]byte, error) {
	if name == p.unit.Inputs[1] {
		return p.blob, nil
	}
	return p.Plan.Blob(name)
}

// TestWorkerSurvivesPanickingUnit: a unit whose body panics is a failed
// unit, as on every executor. The worker nacks it, the coordinator
// counts the failure and requeues it, and its maxAttempts-th failure
// fails the job with the panic's message; the same worker then
// completes another job. Before the worker ran its units through
// engine.RunTask the panic ended the process, and with it an mdserver
// running -fleet-workers; before the bound, the unit was requeued for
// as long as its job lived, thousands of times a second.
func TestWorkerSurvivesPanickingUnit(t *testing.T) {
	c, url := startCoordinator(t, Options{
		LeaseTTL:     30 * time.Second,
		HeartbeatTTL: 30 * time.Second,
		SweepEvery:   20 * time.Millisecond,
		PollEvery:    5 * time.Millisecond,
	})
	opts := psa.Opts{Symmetric: true}
	good, err := stage.PSA(traj.RefsOf(testEnsemble(2, 3, 4, 5)), 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	u := good.Units()[0]
	var desc map[string]any
	if err := json.Unmarshal(u.Desc, &desc); err != nil {
		t.Fatal(err)
	}
	desc["trajs"].([]any)[1].(map[string]any)["natoms"] = 4
	if u.Desc, err = json.Marshal(desc); err != nil {
		t.Fatal(err)
	}
	blob, err := traj.EncodeMDT(synth.Walk("t", 4, 4, 5, 1), 8)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := submitPlan(t, c, &mixedAtomsPlan{Plan: good, unit: u, blob: blob}, nil)

	w, err := StartWorker(WorkerOptions{Coordinator: url, Name: "survivor"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	deadline := time.Now().Add(10 * time.Second)
	err = poisoned.Wait(func() bool { return time.Now().After(deadline) })
	if err == nil || errors.Is(err, ErrAborted) || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("the poisoned job ended with %v, want the unit's panic", err)
	}
	if got := c.Stats().UnitFailures; got != maxAttempts {
		t.Fatalf("unit failures = %d, want exactly %d", got, maxAttempts)
	}
	c.Drop(poisoned)

	ens := testEnsemble(3, 3, 4, 6)
	want, err := psa.SerialRefs(traj.RefsOf(ens), opts)
	if err != nil {
		t.Fatal(err)
	}
	job := submitPSA(t, c, traj.RefsOf(ens), 1, opts, nil)
	defer c.Drop(job)
	if err := job.Wait(func() bool { return time.Now().After(deadline) }); err != nil {
		t.Fatalf("the worker did not complete a job after a panicking unit: %v", err)
	}
	if got := matrixOf(job); !slices.Equal(got.Data, want.Data) {
		t.Fatalf("matrix %v, want %v", got.Data, want.Data)
	}
	if w.UnitsDone.Load() < 1 {
		t.Fatal("the surviving worker completed no unit")
	}
}

// TestExpiryIsNotAFailedAttempt: only a worker's failure report counts
// toward a unit's maxAttempts. A lease revoked on expiry says nothing of
// the unit, so a unit whose leases expire maxAttempts times and that is
// nacked maxAttempts−1 times more still completes its job. The
// background sweeper is parked; each expiry is one sweep at a chosen
// instant past the lease's deadline.
func TestExpiryIsNotAFailedAttempt(t *testing.T) {
	c, url := startCoordinator(t, Options{
		LeaseTTL:     time.Second,
		HeartbeatTTL: time.Hour,
		SweepEvery:   time.Hour,
		PollEvery:    5 * time.Millisecond,
	})
	ens := testEnsemble(2, 3, 4, 8)
	opts := psa.Opts{Symmetric: true}
	want, err := psa.SerialRefs(traj.RefsOf(ens), opts)
	if err != nil {
		t.Fatal(err)
	}
	job := submitPSA(t, c, traj.RefsOf(ens), 2, opts, nil) // one unit
	defer c.Drop(job)

	pc := newProtoClient(t, url)
	for i := range 2*maxAttempts - 1 {
		l := pc.lease()
		if l == nil || l.Unit != 0 {
			t.Fatalf("round %d: lease %+v, want unit 0", i, l)
		}
		if i%2 == 0 {
			c.sweep(time.Now().Add(2 * time.Second))
		} else if code := pc.post(UnitResult{Lease: l.Lease, Job: l.Job, Unit: l.Unit, Failed: true, Error: "boom"}); code != http.StatusOK {
			t.Fatalf("round %d: failure nack: got %d, want 200", i, code)
		}
	}
	if st := c.Stats(); st.UnitFailures != maxAttempts-1 || st.Requeues != 2*maxAttempts-1 {
		t.Fatalf("unit failures %d, requeues %d; want %d and %d", st.UnitFailures, st.Requeues, maxAttempts-1, 2*maxAttempts-1)
	}

	w, err := StartWorker(WorkerOptions{Coordinator: url, Name: "healthy"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	deadline := time.Now().Add(10 * time.Second)
	if err := job.Wait(func() bool { return time.Now().After(deadline) }); err != nil {
		t.Fatalf("the job failed after expiries and %d failures: %v", maxAttempts-1, err)
	}
	if got := matrixOf(job); !slices.Equal(got.Data, want.Data) {
		t.Fatalf("matrix %v, want %v", got.Data, want.Data)
	}
}
