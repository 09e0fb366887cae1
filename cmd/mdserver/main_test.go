package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mdtask/internal/fleet"
	"mdtask/internal/jobs"
)

// TestServerSmoke is the in-process version of the CI smoke step:
// bring the service up, check /healthz, submit a tiny synth PSA job,
// poll it to completion, and fetch the result.
func TestServerSmoke(t *testing.T) {
	sched := jobs.NewScheduler(jobs.DefaultRegistry(), jobs.Options{Workers: 1})
	defer sched.Close()
	ts := httptest.NewServer(jobs.NewServerWith(sched, jobs.ServerOptions{}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	body := `{"analysis":"psa","engine":"dask","synth":{"count":3,"atoms":8,"frames":4}}`
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: got %d", resp.StatusCode)
	}

	deadline := time.Now().Add(30 * time.Second)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", st.ID, st.State)
		}
		time.Sleep(10 * time.Millisecond)
		resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if st.State != jobs.StateDone {
		t.Fatalf("job finished %s (error %q)", st.State, st.Error)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: got %d", resp.StatusCode)
	}
	var res jobs.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Matrix == nil || res.Matrix.N != 3 {
		t.Fatalf("unexpected result %+v", res)
	}
}

// TestServerFleetRoundTrip is the in-process version of the CI fleet
// smoke: serve the combined jobs+fleet handler, attach two real fleet
// workers over HTTP, run the same synth PSA job on the serial and
// fleet engines, and require bit-identical matrices.
func TestServerFleetRoundTrip(t *testing.T) {
	coord := fleet.NewCoordinator(fleet.LocalOptions())
	defer coord.Close()
	sched := jobs.NewScheduler(jobs.RegistryWithFleet(coord), jobs.Options{Workers: 2})
	defer sched.Close()
	ts := httptest.NewServer(buildHandler(sched, coord, nil, jobs.ServerOptions{}))
	defer ts.Close()

	for i := 0; i < 2; i++ {
		w, err := fleet.StartWorker(fleet.WorkerOptions{Coordinator: ts.URL, Name: "test-worker"})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
	}

	runJob := func(engine string) *jobs.Result {
		t.Helper()
		body := `{"analysis":"psa","engine":"` + engine + `","synth":{"count":4,"atoms":8,"frames":4,"seed":5}}`
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var st jobs.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit on %s: got %d", engine, resp.StatusCode)
		}
		deadline := time.Now().Add(60 * time.Second)
		for !st.State.Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("%s job stuck in %s", engine, st.State)
			}
			time.Sleep(10 * time.Millisecond)
			resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		if st.State != jobs.StateDone {
			t.Fatalf("%s job finished %s (error %q)", engine, st.State, st.Error)
		}
		resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var res jobs.Result
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return &res
	}

	serial := runJob("serial")
	fleetRes := runJob("fleet")
	if fleetRes.Matrix == nil || fleetRes.Matrix.N != serial.Matrix.N {
		t.Fatalf("fleet matrix shape: %+v", fleetRes.Matrix)
	}
	for i := range serial.Matrix.Data {
		if fleetRes.Matrix.Data[i] != serial.Matrix.Data[i] {
			t.Fatalf("fleet matrix differs from serial at %d", i)
		}
	}

	// The coordinator stats endpoint is mounted and saw the work.
	resp, err := http.Get(ts.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats fleet.StatsView
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 2 || stats.UnitsCompleted == 0 {
		t.Errorf("fleet stats = %+v", stats)
	}
}

// TestRunWithLocalFleetWorkers boots run() exactly as `mdserver
// -fleet-workers 1` does and proves the single-process fleet mode
// works: the in-process worker registers (which requires the server
// to be accepting requests before workers dial in) and completes a
// fleet job.
func TestRunWithLocalFleetWorkers(t *testing.T) {
	ready := make(chan string, 1)
	cfg := serverConfig{
		addr: "127.0.0.1:0", workers: 1, queue: 8, cacheBytes: 1 << 20, retain: 64,
		fleetWorkers: 1,
		fleetOpts:    fleet.LocalOptions(),
		onReady:      func(a net.Addr) { ready <- "http://" + a.String() },
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg) }()

	var base string
	select {
	case base = <-ready:
	case err := <-done:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("run never became ready")
	}

	resp, err := http.Get(base + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var stats fleet.StatsView
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Workers != 1 {
		t.Fatalf("fleet stats workers = %d, want 1 in-process worker", stats.Workers)
	}

	body := `{"analysis":"psa","engine":"fleet","synth":{"count":3,"atoms":8,"frames":4}}`
	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(30 * time.Second)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("fleet job stuck in %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
		resp, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if st.State != jobs.StateDone {
		t.Fatalf("fleet job finished %s (error %q)", st.State, st.Error)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not shut down")
	}
}

// TestSelfURL covers the wildcard-vs-specific bind cases in-process
// workers dial.
func TestSelfURL(t *testing.T) {
	cases := map[string]string{
		"0.0.0.0:8077":    "http://127.0.0.1:8077",
		"[::]:8077":       "http://127.0.0.1:8077",
		"127.0.0.1:8077":  "http://127.0.0.1:8077",
		"192.0.2.10:8077": "http://192.0.2.10:8077",
	}
	for in, want := range cases {
		got, err := selfURL(fakeAddr(in))
		if err != nil || got != want {
			t.Errorf("selfURL(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
}

type fakeAddr string

func (a fakeAddr) Network() string { return "tcp" }
func (a fakeAddr) String() string  { return string(a) }

// TestRunShutdownWithFleetJobInFlight sends the shutdown signal while
// a fleet job is mid-run: run() must abort the coordinator job,
// unblock the scheduler drain, and return instead of deadlocking on a
// job whose workers can no longer reach the closed listener.
func TestRunShutdownWithFleetJobInFlight(t *testing.T) {
	ready := make(chan string, 1)
	cfg := serverConfig{
		addr: "127.0.0.1:0", workers: 1, queue: 8, cacheBytes: 1 << 20, retain: 64,
		fleetWorkers: 1,
		fleetOpts:    fleet.LocalOptions(),
		onReady:      func(a net.Addr) { ready <- "http://" + a.String() },
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg) }()
	var base string
	select {
	case base = <-ready:
	case err := <-done:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("run never became ready")
	}

	// A fleet job heavy enough to still be running when we pull the
	// plug (O(frames²) per trajectory pair on one worker).
	body := `{"analysis":"psa","engine":"fleet","synth":{"count":6,"atoms":64,"frames":512}}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(30 * time.Second)
	for st.State == jobs.StateQueued {
		if time.Now().After(deadline) {
			t.Fatalf("fleet job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	cancel() // SIGTERM equivalent, mid-job
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run deadlocked shutting down with a fleet job in flight")
	}
}
