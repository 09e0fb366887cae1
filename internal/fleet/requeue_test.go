package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mdtask/internal/linalg"
	"mdtask/internal/psa"
	"mdtask/internal/stage"
	"mdtask/internal/traj"
)

// protoClient drives the worker protocol by hand, playing the part of
// a worker whose behaviour (or death) the test controls exactly.
type protoClient struct {
	t    *testing.T
	base string
	id   string
}

func newProtoClient(t *testing.T, base string) *protoClient {
	t.Helper()
	pc := &protoClient{t: t, base: base}
	resp, err := http.Post(base+"/v1/workers", "application/json",
		bytes.NewReader([]byte(`{"name":"manual"}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %s", resp.Status)
	}
	var rr RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	pc.id = rr.ID
	return pc
}

// lease pulls one unit; nil means no work.
func (pc *protoClient) lease() *Lease {
	pc.t.Helper()
	resp, err := http.Post(pc.base+"/v1/workers/"+pc.id+"/lease", "application/json", nil)
	if err != nil {
		pc.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		pc.t.Fatalf("lease: %s", resp.Status)
	}
	var l Lease
	if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
		pc.t.Fatal(err)
	}
	return &l
}

// post ships a result and returns the HTTP status.
func (pc *protoClient) post(res UnitResult) int {
	pc.t.Helper()
	body, err := json.Marshal(res)
	if err != nil {
		pc.t.Fatal(err)
	}
	resp, err := http.Post(pc.base+"/v1/workers/"+pc.id+"/results", "application/json", bytes.NewReader(body))
	if err != nil {
		pc.t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// heartbeat keeps the manual worker alive in the failure detector.
func (pc *protoClient) heartbeat() {
	pc.t.Helper()
	resp, err := http.Post(pc.base+"/v1/workers/"+pc.id+"/heartbeat", "application/json", nil)
	if err != nil {
		pc.t.Fatal(err)
	}
	resp.Body.Close()
}

// startCoordinator serves a coordinator over httptest.
func startCoordinator(t testing.TB, opts Options) (*Coordinator, string) {
	t.Helper()
	c := NewCoordinator(opts)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		c.Close()
	})
	return c, ts.URL
}

// TestLeaseExpiryRequeues holds one unit hostage on a heartbeating but
// never-reporting worker: the lease must expire, the unit requeue, and
// a healthy worker must complete the job with the correct matrix.
func TestLeaseExpiryRequeues(t *testing.T) {
	c, url := startCoordinator(t, Options{
		LeaseTTL:     200 * time.Millisecond,
		HeartbeatTTL: 30 * time.Second, // isolate the lease-expiry path
		SweepEvery:   20 * time.Millisecond,
		PollEvery:    5 * time.Millisecond,
	})
	ens := testEnsemble(4, 6, 5, 13)
	opts := psa.Opts{Symmetric: true}
	want, err := psa.SerialRefs(traj.RefsOf(ens), opts)
	if err != nil {
		t.Fatal(err)
	}
	job := submitPSA(t, c, traj.RefsOf(ens), 2, opts, nil)
	defer c.Drop(job)

	// The hostage-taker leases the first unit and sits on it.
	bad := newProtoClient(t, url)
	hostage := bad.lease()
	if hostage == nil {
		t.Fatal("no lease granted")
	}

	// A healthy worker drains the rest — and, after the TTL, the
	// requeued hostage unit.
	good, err := StartWorker(WorkerOptions{Coordinator: url, Name: "good"})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()

	if err := job.Wait(nil); err != nil {
		t.Fatal(err)
	}
	if n := requeuesOf(job); n < 1 {
		t.Errorf("requeues = %d, want >= 1", n)
	}
	got := matrixOf(job)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("matrix differs from serial at %d after requeue", i)
		}
	}

	// The hostage-taker finally reports: its lease is long revoked.
	if code := bad.post(UnitResult{Lease: hostage.Lease, Job: hostage.Job, Unit: hostage.Unit}); code != http.StatusConflict {
		t.Errorf("stale post: got %d, want 409", code)
	}
	if got := c.Stats(); got.Requeues < 1 {
		t.Errorf("coordinator stats requeues = %d, want >= 1", got.Requeues)
	}
}

// TestDeadWorkerRequeues kills a worker silently (no heartbeats, long
// lease): the heartbeat failure detector must declare it dead and
// requeue its leases well before the lease TTL, and the job must still
// complete correctly.
func TestDeadWorkerRequeues(t *testing.T) {
	c, url := startCoordinator(t, Options{
		LeaseTTL:     30 * time.Second, // isolate the dead-worker path
		HeartbeatTTL: 400 * time.Millisecond,
		SweepEvery:   20 * time.Millisecond,
		PollEvery:    5 * time.Millisecond,
	})
	ens := testEnsemble(4, 6, 5, 17)
	opts := psa.Opts{Symmetric: true}
	want, err := psa.SerialRefs(traj.RefsOf(ens), opts)
	if err != nil {
		t.Fatal(err)
	}
	job := submitPSA(t, c, traj.RefsOf(ens), 2, opts, nil)
	defer c.Drop(job)

	// The doomed worker grabs a unit and then goes silent — the manual
	// client never heartbeats, exactly like a kill -9.
	doomed := newProtoClient(t, url)
	if doomed.lease() == nil {
		t.Fatal("no lease granted")
	}

	good, err := StartWorker(WorkerOptions{Coordinator: url, Name: "survivor"})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()

	start := time.Now()
	if err := job.Wait(nil); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("job took %s; dead-worker detection should beat the 30s lease TTL", elapsed)
	}
	if n := requeuesOf(job); n < 1 {
		t.Errorf("requeues = %d, want >= 1", n)
	}
	got := matrixOf(job)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("matrix differs from serial at %d after worker death", i)
		}
	}
	if st := c.Stats(); st.WorkersLost < 1 {
		t.Errorf("workers lost = %d, want >= 1", st.WorkersLost)
	}
}

// TestAbortStalePostsAndUnknownWorker checks cooperative abort: Wait
// returns ErrAborted, in-flight posts are rejected, and requests from
// never-registered workers 404.
func TestAbortStalePostsAndUnknownWorker(t *testing.T) {
	c, url := startCoordinator(t, LocalOptions())
	job := submitPSA(t, c, traj.RefsOf(testEnsemble(4, 6, 5, 29)), 2, psa.Opts{Symmetric: true}, nil)
	defer c.Drop(job)

	pc := newProtoClient(t, url)
	l := pc.lease()
	if l == nil {
		t.Fatal("no lease granted")
	}
	cancelled := true
	if err := job.Wait(func() bool { return cancelled }); err != ErrAborted {
		t.Fatalf("Wait on aborted job: got %v, want ErrAborted", err)
	}
	if code := pc.post(UnitResult{Lease: l.Lease, Job: l.Job, Unit: l.Unit}); code != http.StatusConflict {
		t.Errorf("post after abort: got %d, want 409", code)
	}

	// Unknown worker ids 404 everywhere.
	resp, err := http.Post(url+"/v1/workers/w-zzz/lease", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown worker lease: got %d, want 404", resp.StatusCode)
	}

	// Graceful deregister requeues immediately.
	pc2 := newProtoClient(t, url)
	job2 := submitPSA(t, c, traj.RefsOf(testEnsemble(2, 4, 3, 1)), 1, psa.Opts{Symmetric: true}, nil)
	defer c.Drop(job2)
	if pc2.lease() == nil {
		t.Fatal("no lease granted")
	}
	req, _ := http.NewRequest(http.MethodDelete, url+"/v1/workers/"+pc2.id, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if n := requeuesOf(job2); n < 1 {
		t.Errorf("deregister did not requeue: %d", n)
	}
}

// TestMalformedResultRequeues checks a corrupt payload is rejected
// with 400 and the unit is requeued rather than lost.
func TestMalformedResultRequeues(t *testing.T) {
	c, url := startCoordinator(t, Options{
		LeaseTTL:     30 * time.Second,
		HeartbeatTTL: 30 * time.Second,
		SweepEvery:   20 * time.Millisecond,
		PollEvery:    5 * time.Millisecond,
	})
	ens := testEnsemble(2, 4, 3, 5)
	opts := psa.Opts{Symmetric: true}
	job := submitPSA(t, c, traj.RefsOf(ens), 1, opts, nil)
	defer c.Drop(job)
	pc := newProtoClient(t, url)
	l := pc.lease()
	if l == nil {
		t.Fatal("no lease granted")
	}
	// Wrong value count for the block.
	if code := pc.post(UnitResult{Lease: l.Lease, Job: l.Job, Unit: l.Unit, Payload: linalg.AppendFloats(nil, []float64{1})}); code != http.StatusBadRequest {
		t.Fatalf("malformed post: got %d, want 400", code)
	}
	// The unit comes back to the queue immediately.
	if l2 := pc.lease(); l2 == nil || l2.Unit != l.Unit {
		t.Fatalf("unit not requeued after malformed post: %+v", l2)
	}
	pc.heartbeat() // keep the test honest about liveness semantics
}

// TestSlowUnitOnLiveWorkerNotRevoked checks lease renewal: a worker
// that computes longer than LeaseTTL but keeps heartbeating never has
// its unit revoked, and its eventual post is accepted.
func TestSlowUnitOnLiveWorkerNotRevoked(t *testing.T) {
	c, url := startCoordinator(t, Options{
		LeaseTTL:     150 * time.Millisecond,
		HeartbeatTTL: 30 * time.Second,
		SweepEvery:   20 * time.Millisecond,
		PollEvery:    5 * time.Millisecond,
	})
	ens := testEnsemble(2, 4, 3, 31)
	opts := psa.Opts{Symmetric: true}
	job := submitPSA(t, c, traj.RefsOf(ens), 1, opts, nil)
	defer c.Drop(job)

	pc := newProtoClient(t, url)
	l := pc.lease()
	if l == nil {
		t.Fatal("no lease granted")
	}
	// "Compute" for 3× the lease TTL, heartbeating the whole time.
	for i := 0; i < 9; i++ {
		time.Sleep(50 * time.Millisecond)
		pc.heartbeat()
	}
	payload, err := stage.Exec(stage.Unit{Kind: l.Kind, Desc: l.Desc}, stage.Env{
		Fetch: func(name string) ([]byte, error) { return c.blobOf(l.Job, name) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if code := pc.post(UnitResult{Lease: l.Lease, Job: l.Job, Unit: l.Unit, Payload: payload}); code != http.StatusOK {
		t.Fatalf("slow-but-alive worker's post rejected with %d", code)
	}
	if got := requeuesOf(job); got != 0 {
		t.Errorf("requeues = %d, want 0 (live worker must keep its lease)", got)
	}
}
