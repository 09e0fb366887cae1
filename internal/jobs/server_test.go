package jobs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mdtask/internal/leaflet"
	"mdtask/internal/linalg"
	"mdtask/internal/psa"
	"mdtask/internal/traj"
)

func newTestServer(t *testing.T, reg *Registry, o Options) (*httptest.Server, *Scheduler) {
	t.Helper()
	s := NewScheduler(reg, o)
	ts := httptest.NewServer(NewServer(s))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts, s
}

func doJSON(t *testing.T, method, url string, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func submitJob(t *testing.T, url string, spec Spec) Status {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	code, raw := doJSON(t, http.MethodPost, url+"/v1/jobs", string(body))
	if code != http.StatusAccepted {
		t.Fatalf("submit: got %d: %s", code, raw)
	}
	var st Status
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func pollJob(t *testing.T, url, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, raw := doJSON(t, http.MethodGet, url+"/v1/jobs/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("poll: got %d: %s", code, raw)
		}
		var st Status
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func fetchResult(t *testing.T, url, id string) (*Result, int) {
	t.Helper()
	code, raw := doJSON(t, http.MethodGet, url+"/v1/jobs/"+id+"/result", "")
	if code != http.StatusOK {
		return nil, code
	}
	var res Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	return &res, code
}

// TestAPIPSAAllEngines round-trips a PSA job through the HTTP API on
// every engine and checks each matrix is bit-identical to the serial
// runner's.
func TestAPIPSAAllEngines(t *testing.T) {
	ts, _ := newTestServer(t, DefaultRegistry(), Options{Workers: 2})
	spec, err := validPSASpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	in, err := ResolveInput(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := psa.SerialRefs(traj.RefsOf(in.Ens), psa.Opts{Symmetric: true, Method: spec.hausdorffMethod()})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range Engines {
		s := validPSASpec()
		s.Engine = eng
		st := submitJob(t, ts.URL, s)
		st = pollJob(t, ts.URL, st.ID)
		if st.State != StateDone {
			t.Fatalf("%s: job finished %s (error %q)", eng, st.State, st.Error)
		}
		res, code := fetchResult(t, ts.URL, st.ID)
		if code != http.StatusOK || res.Matrix == nil {
			t.Fatalf("%s: result fetch failed (%d)", eng, code)
		}
		if res.Matrix.N != want.N {
			t.Fatalf("%s: matrix size %d, want %d", eng, res.Matrix.N, want.N)
		}
		for i := range want.Data {
			if res.Matrix.Data[i] != want.Data[i] {
				t.Fatalf("%s: matrix differs from serial at %d", eng, i)
			}
		}
	}
}

// TestAPILeafletAllEngines round-trips a Leaflet Finder job on every
// engine (task2d, the approach all five support) and checks each
// assignment matches the serial runner's.
func TestAPILeafletAllEngines(t *testing.T) {
	ts, _ := newTestServer(t, DefaultRegistry(), Options{Workers: 2})
	spec, err := validLeafletSpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	in, err := ResolveInput(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := leaflet.Serial(in.Coords, spec.Cutoff)
	for _, eng := range Engines {
		s := validLeafletSpec()
		s.Engine = eng
		st := submitJob(t, ts.URL, s)
		st = pollJob(t, ts.URL, st.ID)
		if st.State != StateDone {
			t.Fatalf("%s: job finished %s (error %q)", eng, st.State, st.Error)
		}
		res, code := fetchResult(t, ts.URL, st.ID)
		if code != http.StatusOK || res.Leaflet == nil {
			t.Fatalf("%s: result fetch failed (%d)", eng, code)
		}
		if !leaflet.Equal(res.Leaflet, want) {
			t.Fatalf("%s: assignment differs from serial", eng)
		}
	}
}

// TestAPICacheHit submits the same job twice and asserts the second is
// answered from the result cache without running any engine tasks.
func TestAPICacheHit(t *testing.T) {
	ts, _ := newTestServer(t, DefaultRegistry(), Options{Workers: 1})
	st := submitJob(t, ts.URL, validPSASpec())
	st = pollJob(t, ts.URL, st.ID)
	if st.State != StateDone || st.CacheHit {
		t.Fatalf("first run: %+v", st)
	}
	first, _ := fetchResult(t, ts.URL, st.ID)

	var before ServiceMetrics
	code, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if err := json.Unmarshal(raw, &before); err != nil {
		t.Fatal(err)
	}
	if before.Engine.Tasks == 0 {
		t.Fatal("first run recorded no engine tasks")
	}

	st2 := submitJob(t, ts.URL, validPSASpec())
	if st2.State != StateDone || !st2.CacheHit {
		t.Fatalf("identical resubmission not a cache hit: %+v", st2)
	}
	second, _ := fetchResult(t, ts.URL, st2.ID)
	for i := range first.Matrix.Data {
		if first.Matrix.Data[i] != second.Matrix.Data[i] {
			t.Fatal("cached result differs")
		}
	}

	var after ServiceMetrics
	_, raw = doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", "")
	if err := json.Unmarshal(raw, &after); err != nil {
		t.Fatal(err)
	}
	if after.Engine.Tasks != before.Engine.Tasks {
		t.Errorf("cache hit re-ran engine tasks: %d -> %d", before.Engine.Tasks, after.Engine.Tasks)
	}
	if after.CacheHits != 1 {
		t.Errorf("cache hits = %d", after.CacheHits)
	}
}

// TestAPICancel exercises DELETE on a running job: the job must end
// cancelled, with the result endpoint reporting 410 Gone.
func TestAPICancel(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	ts, _ := newTestServer(t, blockingRegistry(started, release), Options{Workers: 1})
	spec := validPSASpec()
	spec.Engine = EngineSerial
	st := submitJob(t, ts.URL, spec)
	<-started
	code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, "")
	if code != http.StatusOK {
		t.Fatalf("cancel: got %d", code)
	}
	st = pollJob(t, ts.URL, st.ID)
	if st.State != StateCancelled {
		t.Fatalf("job finished %s, want cancelled", st.State)
	}
	if _, code := fetchResult(t, ts.URL, st.ID); code != http.StatusGone {
		t.Errorf("result of cancelled job: got %d, want 410", code)
	}
	// Cancelling an already-cancelled job is idempotent.
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, ""); code != http.StatusOK {
		t.Errorf("re-cancel: got %d, want 200", code)
	}
}

// TestAPIErrors covers the 400/404/409 paths.
func TestAPIErrors(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	reg := blockingRegistry(started, release)
	ts, _ := newTestServer(t, reg, Options{Workers: 1})

	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "{not json"); code != http.StatusBadRequest {
		t.Errorf("bad body: got %d", code)
	}
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", `{"analysis":"psa","bogus_field":1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field: got %d", code)
	}
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", `{"analysis":"docking","synth":{}}`); code != http.StatusBadRequest {
		t.Errorf("bad spec: got %d", code)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/job-999999", ""); code != http.StatusNotFound {
		t.Errorf("missing job: got %d", code)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/job-999999/result", ""); code != http.StatusNotFound {
		t.Errorf("missing result: got %d", code)
	}
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/job-999999", ""); code != http.StatusNotFound {
		t.Errorf("missing cancel: got %d", code)
	}

	// A still-running job has no result yet: 409.
	spec := validPSASpec()
	spec.Engine = EngineSerial
	st := submitJob(t, ts.URL, spec)
	<-started
	if _, code := fetchResult(t, ts.URL, st.ID); code != http.StatusConflict {
		t.Errorf("result of running job: got %d, want 409", code)
	}
}

// TestAPISpecBodyBound is the regression test for the unbounded
// POST /v1/jobs decode: an oversized body must answer 413 with a JSON
// error envelope (not buffer server-side), a body exactly at the limit
// must still decode, and the rejection must not admit a job.
func TestAPISpecBodyBound(t *testing.T) {
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1})
	ts := httptest.NewServer(NewServerWith(s, ServerOptions{MaxSpecBytes: 512}))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	huge := `{"analysis":"psa","synth":{"count":2},"method":"` + strings.Repeat("x", 4096) + `"}`
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", huge)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: got %d, want 413", code)
	}
	var env map[string]string
	if err := json.Unmarshal(raw, &env); err != nil || env["error"] == "" {
		t.Fatalf("413 body is not a JSON error envelope: %q (%v)", raw, err)
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("rejected oversized spec admitted %d job(s)", n)
	}

	ok := `{"analysis":"psa","synth":{"count":2,"atoms":4,"frames":3}}`
	if code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", ok); code != http.StatusAccepted {
		t.Fatalf("in-bound spec: got %d (%s), want 202", code, raw)
	}
}

// TestAPIRejectsOversizedSynth is the regression test for a one-request
// server kill: a synth spec whose coordinates cannot fit used to reach
// synth.Walk on the submit path and end in a fatal (unrecoverable) out
// of memory. It must answer 400 without admitting anything, and the
// server must go on running the next valid job.
func TestAPIRejectsOversizedSynth(t *testing.T) {
	ts, s := newTestServer(t, DefaultRegistry(), Options{Workers: 1})
	for _, body := range []string{
		`{"analysis":"psa","synth":{"atoms":1099511627776,"frames":2}}`,
		`{"analysis":"leaflet","synth":{"atoms":1099511627776}}`,
	} {
		code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body)
		if code != http.StatusBadRequest || !strings.Contains(string(raw), "exceeds") {
			t.Fatalf("%s: got %d (%s), want 400 naming the ceiling", body, code, raw)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("oversized synth admitted %d job(s)", n)
	}
	st := pollJob(t, ts.URL, submitJob(t, ts.URL, validPSASpec()).ID)
	if st.State != StateDone {
		t.Fatalf("valid job after the rejection: %s (%s)", st.State, st.Error)
	}
}

// TestAPIRejectsOversizedParallelism is the regression test for the
// other one-request server kill: an mpi job asking for 40000 ranks used
// to reach mpi.Run, whose 40000² channel fabric is a fatal out of
// memory. It must answer 400 without admitting anything, and the
// server must go on running the next valid job.
func TestAPIRejectsOversizedParallelism(t *testing.T) {
	ts, s := newTestServer(t, DefaultRegistry(), Options{Workers: 1})
	body := `{"analysis":"psa","engine":"mpi","parallelism":40000,"synth":{"seed":1}}`
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body)
	if code != http.StatusBadRequest || !strings.Contains(string(raw), "parallelism") {
		t.Fatalf("got %d (%s), want 400 naming parallelism", code, raw)
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("oversized parallelism admitted %d job(s)", n)
	}
	spec := validPSASpec()
	spec.Engine, spec.Parallelism = EngineMPI, 4
	st := pollJob(t, ts.URL, submitJob(t, ts.URL, spec).ID)
	if st.State != StateDone {
		t.Fatalf("valid job after the rejection: %s (%s)", st.State, st.Error)
	}
}

// TestAPIListAndHealth covers GET /v1/jobs and /healthz.
func TestAPIListAndHealth(t *testing.T) {
	ts, _ := newTestServer(t, DefaultRegistry(), Options{Workers: 1})
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz: got %d", code)
	}
	st := submitJob(t, ts.URL, validPSASpec())
	pollJob(t, ts.URL, st.ID)
	code, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", "")
	if code != http.StatusOK {
		t.Fatalf("list: got %d", code)
	}
	var list []Status
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("list = %+v", list)
	}
}

// A trajectory file holding a NaN or ±Inf coordinate is a client error:
// both the in-memory and the streamed submission are refused with 400
// before anything is queued, and the message names the file, the frame
// and the atom (non-finite values would make every pruning bound of the
// Hausdorff kernels vacuous, so they are rejected at decode).
func TestSubmitRejectsNonFiniteCoordinates(t *testing.T) {
	dir := t.TempDir()
	good := traj.New("good", 2)
	bad := traj.New("bad", 2)
	for f := 0; f < 4; f++ {
		fr := traj.Frame{Time: float64(f), Coords: []linalg.Vec3{{float64(f), 0, 0}, {0, 1, float64(f)}}}
		good.Frames = append(good.Frames, fr)
		bad.Frames = append(bad.Frames, fr.Clone())
	}
	bad.Frames[2].Coords[1][0] = math.Inf(-1)
	if err := traj.WriteMDTFile(filepath.Join(dir, "a-good.mdt"), good, 8); err != nil {
		t.Fatal(err)
	}
	if err := traj.WriteMDTFile(filepath.Join(dir, "b-bad.mdt"), bad, 4); err != nil {
		t.Fatal(err)
	}
	ts, s := newTestServer(t, DefaultRegistry(), Options{Workers: 1})
	for _, maxFrames := range []int{0, 2} {
		body, err := json.Marshal(Spec{Analysis: AnalysisPSA, Path: dir, MaxResidentFrames: maxFrames})
		if err != nil {
			t.Fatal(err)
		}
		code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", string(body))
		if code != http.StatusBadRequest {
			t.Fatalf("max_resident_frames=%d: got %d, want 400: %s", maxFrames, code, raw)
		}
		for _, part := range []string{"b-bad.mdt", "frame 2", "atom 1", "non-finite"} {
			if !strings.Contains(string(raw), part) {
				t.Fatalf("max_resident_frames=%d: error %s does not name %q", maxFrames, raw, part)
			}
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("%d job(s) admitted from an ensemble with a non-finite coordinate", n)
	}
}
