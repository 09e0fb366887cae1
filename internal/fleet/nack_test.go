package fleet

import (
	"net/http"
	"testing"
	"time"

	"mdtask/internal/faultinject"
	"mdtask/internal/psa"
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
