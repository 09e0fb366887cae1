package jobs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"mdtask/internal/leaflet"
	"mdtask/internal/linalg"
	"mdtask/internal/psa"
	"mdtask/internal/traj"
)

func newTestServer(t *testing.T, reg *Registry, o Options) (*httptest.Server, *Scheduler) {
	t.Helper()
	s := NewScheduler(reg, o)
	ts := httptest.NewServer(NewServerWith(s, ServerOptions{}))
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
	want, err := psa.SerialRefs(in.Refs, psa.Opts{Symmetric: true, Method: spec.hausdorffMethod()})
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
		if !slices.Equal(res.Leaflet.Labels, want.Labels) {
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
//
// 2^40 atoms fit a 64-bit int, so the ceiling refuses them; on a 32-bit
// target the decoder refuses the number first, which is just as safe.
func TestAPIRejectsOversizedSynth(t *testing.T) {
	ts, s := newTestServer(t, DefaultRegistry(), Options{Workers: 1})
	want, by := "exceeds", "the ceiling"
	if strconv.IntSize == 32 {
		want, by = "cannot unmarshal number 1099511627776", "the decoder"
	}
	for _, body := range []string{
		`{"analysis":"psa","synth":{"atoms":1099511627776,"frames":2}}`,
		`{"analysis":"leaflet","synth":{"atoms":1099511627776}}`,
	} {
		code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body)
		if code != http.StatusBadRequest || !strings.Contains(string(raw), want) {
			t.Fatalf("%s: got %d (%s), want 400 from %s", body, code, raw, by)
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

// TestAPIRejectsOversizedTasks: a task count past MaxTasks is refused
// with 400 before anything is admitted, for each analysis. At the int
// extreme a Leaflet plan's chunk search used to wrap around and pin a
// scheduler worker for ever; a PSA one planned a block per pair. The
// ceiling itself is admitted.
func TestAPIRejectsOversizedTasks(t *testing.T) {
	ts, s := newTestServer(t, DefaultRegistry(), Options{Workers: 1})
	for _, analysis := range []string{AnalysisPSA, AnalysisLeaflet} {
		for _, tasks := range []int{MaxTasks + 1, math.MaxInt} {
			body := fmt.Sprintf(`{"analysis":%q,"tasks":%d,"synth":{"seed":1}}`, analysis, tasks)
			code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body)
			if code != http.StatusBadRequest || !strings.Contains(string(raw), "tasks") {
				t.Fatalf("%s tasks=%d: got %d (%s), want 400 naming tasks", analysis, tasks, code, raw)
			}
		}
		if n := len(s.Jobs()); n != 0 {
			t.Fatalf("%s: oversized tasks admitted %d job(s)", analysis, n)
		}
		if _, err := (Spec{Analysis: analysis, Tasks: MaxTasks, Synth: &SynthSpec{}}).Normalized(); err != nil {
			t.Fatalf("%s: tasks at the ceiling refused: %v", analysis, err)
		}
	}
}

// TestAPIRejectsOversizedPSAPlan: a prime member count cuts only into
// single-member groups, whatever tasks says, so 11 579 synth members of
// 1 atom × 1 frame (within MaxSynthBytes) would plan about 67 M blocks.
// The spec must answer 400 before anything is generated (Normalized
// refuses it), and a directory of 8209 files (prime, 33.7 M blocks) must
// be refused when it is listed, before any file is read (they are
// empty). The ceiling is bytes of plan, so the largest primes under it
// (8191; 5791 on the full matrix) are admitted and the next refused,
// and so are small primes and 2p plans of a few MB.
func TestAPIRejectsOversizedPSAPlan(t *testing.T) {
	ts, s := newTestServer(t, DefaultRegistry(), Options{Workers: 1})
	huge := Spec{Analysis: AnalysisPSA, Synth: &SynthSpec{Count: 11579, Atoms: 1, Frames: 1}}
	if _, err := huge.Normalized(); err == nil || !strings.Contains(err.Error(), "blocks") {
		t.Fatalf("11579 × 1 × 1: Normalized = %v, want the plan ceiling", err)
	}
	body := `{"analysis":"psa","synth":{"count":11579,"atoms":1,"frames":1}}`
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body)
	if code != http.StatusBadRequest || !strings.Contains(string(raw), "blocks") {
		t.Fatalf("got %d (%s), want 400 naming the blocks", code, raw)
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("oversized plan admitted %d job(s)", n)
	}
	if sz := int64(unsafe.Sizeof(psa.Block{})); MaxPSABlocks*sz > MaxSynthBytes {
		t.Fatalf("a plan of %d blocks of %d B passes %d B", MaxPSABlocks, sz, MaxSynthBytes)
	}

	dir := t.TempDir()
	for i := range 8209 {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("m%04d.mdt", i)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, frames := range []int{0, 3} {
		norm, err := Spec{Analysis: AnalysisPSA, Path: dir, MaxResidentFrames: frames}.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ResolveInput(norm); err == nil || !strings.Contains(err.Error(), "blocks") {
			t.Fatalf("8209 files, max_resident_frames %d: ResolveInput = %v, want the plan ceiling", frames, err)
		}
	}

	for _, tc := range []struct {
		count, tasks int
		full, ok     bool
	}{
		{count: 7, ok: true}, {count: 7, full: true, ok: true},
		{count: 13, ok: true}, {count: 13, full: true, ok: true},
		{count: 127, ok: true}, {count: 127, full: true, ok: true},
		{count: 367, ok: true}, {count: 734, tasks: 64, ok: true},
		{count: 8191, ok: true}, {count: 8209},
		{count: 5791, full: true, ok: true}, {count: 5801, full: true},
	} {
		spec := Spec{Analysis: AnalysisPSA, FullMatrix: tc.full, Tasks: tc.tasks, Synth: &SynthSpec{Count: tc.count, Atoms: 1, Frames: 1}}
		if _, err := spec.Normalized(); (err == nil) != tc.ok {
			t.Errorf("%d members (tasks %d, full matrix %v): Normalized = %v, admitted want %v", tc.count, tc.tasks, tc.full, err, tc.ok)
		}
	}
	st := pollJob(t, ts.URL, submitJob(t, ts.URL, Spec{Analysis: AnalysisPSA, Synth: &SynthSpec{Count: 13, Atoms: 2, Frames: 2}}).ID)
	if st.State != StateDone {
		t.Fatalf("13-member job: %s (%s)", st.State, st.Error)
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
	good := traj.Alloc("good", 2, 4)
	for f := range 4 {
		good.Times[f] = float64(f)
		copy(good.FrameCoords(f), []linalg.Vec3{{float64(f), 0, 0}, {0, 1, float64(f)}})
	}
	bad := &traj.Trajectory{Name: "bad", NAtoms: 2, Coords: slices.Clone(good.Coords), Times: good.Times}
	bad.FrameCoords(2)[1][0] = math.Inf(-1)
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

// A PSA directory whose members disagree on atom count is a client
// error on every engine, resident or streamed: Resolve refuses it, POST
// answers 400 naming the odd member, and nothing is journaled. Admitted,
// it failed every in-process engine with a recovered kernel panic and
// killed the fleet worker that ran it.
func TestAPIRejectsMixedAtomCounts(t *testing.T) {
	dir := t.TempDir()
	for i, atoms := range []int{16, 20} {
		tr := traj.Alloc(fmt.Sprintf("t%d", i), atoms, 3)
		if err := traj.WriteMDTFile(filepath.Join(dir, tr.Name+".mdt"), tr, 4); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := openStore(t, t.TempDir())
	defer st.Close()
	ts, s := newTestServer(t, DefaultRegistry(), Options{Workers: 1, Journal: st})
	for _, eng := range Engines {
		for _, window := range []int{0, 4} {
			spec := Spec{Analysis: AnalysisPSA, Engine: eng, Path: dir, MaxResidentFrames: window}
			if _, _, err := Resolve(spec); err == nil || !strings.Contains(err.Error(), "20 atoms") {
				t.Fatalf("%s window=%d: Resolve = %v, want the member of 20 atoms refused", eng, window, err)
			}
			body, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", string(body))
			if code != http.StatusBadRequest || !strings.Contains(string(raw), "20 atoms") {
				t.Fatalf("%s window=%d: got %d (%s), want 400 naming the member of 20 atoms", eng, window, code, raw)
			}
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("%d job(s) admitted from an ensemble of mixed atom counts", n)
	}
	if a := st.log.Stats().Appends; a != 0 {
		t.Fatalf("refused submissions journaled %d records", a)
	}
}

// A result json.Marshal would refuse fails its job. Finite float64
// coordinates at ±1e200 pass admission, but their distances overflow
// to +Inf, which JSON cannot carry: the job must end failed with the
// encoder's reason, GET …/result must answer 500 with that reason
// instead of a 200 with an empty body, and the journal must hold a
// failed record, never a done one with an empty digest.
func TestAPIUnencodableResultFails(t *testing.T) {
	dir := t.TempDir()
	for i, x := range []float64{1e200, -1e200} {
		tr := traj.Alloc(fmt.Sprintf("t%d", i), 2, 4)
		for f := range 4 {
			tr.Times[f] = float64(f)
			copy(tr.FrameCoords(f), []linalg.Vec3{{x, x, x}, {x, -x, float64(f)}})
		}
		if err := traj.WriteMDTFile(filepath.Join(dir, tr.Name+".mdt"), tr, 8); err != nil {
			t.Fatal(err)
		}
	}
	dataDir := t.TempDir()
	st, _ := openStore(t, dataDir)
	defer st.Close()
	ts, _ := newTestServer(t, DefaultRegistry(), Options{Workers: 1, Journal: st})

	sub := submitJob(t, ts.URL, Spec{Analysis: AnalysisPSA, Engine: EngineSerial, Path: dir})
	fin := pollJob(t, ts.URL, sub.ID)
	if fin.State != StateFailed || !strings.Contains(fin.Error, "unsupported value") {
		t.Fatalf("job over ±1e200 coordinates finished %s (%q), want failed with the encoder's reason", fin.State, fin.Error)
	}
	code, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.ID+"/result", "")
	if code != http.StatusInternalServerError || !strings.Contains(string(raw), "unsupported value") {
		t.Fatalf("GET result = %d %s, want 500 with the encoder's reason", code, raw)
	}
	journalStats(t, st, 3) // submit, running, failed
	data, err := os.ReadFile(filepath.Join(dataDir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	_, recs := journalFrames(t, data)
	if last := recs[len(recs)-1]; last.T != "state" || last.State != StateFailed || last.Err == "" {
		t.Errorf("last journal record %+v, want the failed state with its reason", last)
	}
	for _, r := range recs {
		if r.State == StateDone {
			t.Errorf("journal holds a done record %+v for a result that cannot be encoded", r)
		}
	}
}

// TestResultBodyMatchesEncoder pins the result wire: for a PSA and a
// Leaflet job, GET …/result answers exactly what json.Encoder (HTML
// escaping off) writes for the job's result, newline included, with a
// Content-Length that matches it.
func TestResultBodyMatchesEncoder(t *testing.T) {
	ts, s := newTestServer(t, DefaultRegistry(), Options{Workers: 1})
	for _, spec := range []Spec{validPSASpec(), validLeafletSpec()} {
		st := pollJob(t, ts.URL, submitJob(t, ts.URL, spec).ID)
		if st.State != StateDone {
			t.Fatalf("%s job finished %s (%s)", spec.Analysis, st.State, st.Error)
		}
		job, _ := s.Get(st.ID)
		res, _, _ := job.Result()
		var want strings.Builder
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || string(body) != want.String() {
			t.Fatalf("%s result: %d\n%s\nwant json.Encoder's\n%s", spec.Analysis, resp.StatusCode, body, want.String())
		}
		if resp.ContentLength != int64(len(body)) || resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("%s result: Content-Length %d, Content-Type %q for a %d-byte JSON body",
				spec.Analysis, resp.ContentLength, resp.Header.Get("Content-Type"), len(body))
		}
	}
}
