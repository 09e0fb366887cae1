package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	ms := time.Millisecond
	r := &recorder{spans: []span{
		{Name: "root", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "b", Parent: 0, Start: 30 * ms, End: 60 * ms}, // overlaps a: the union covers 10..60
		{Name: "a1", Parent: 1, Start: 15 * ms, End: 20 * ms},
		{Name: "late", Parent: 0, Start: 90 * ms, End: 120 * ms}, // runs past its parent: only 90..100 counts
	}}
	want := []time.Duration{40 * ms, 25 * ms, 30 * ms, 5 * ms, 30 * ms}
	for i, got := range r.selfTimes() {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", r.spans[i].Name, got, want[i])
		}
	}
	raw, err := r.chromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) != len(r.spans) {
		t.Fatalf("chrome trace: %v, %d events", err, len(doc.TraceEvents))
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestJobListIsAFunctionOfTheSeed(t *testing.T) {
	list := func(w workload, seed uint64) [][]byte {
		var out [][]byte
		for s := 0; s < w.streams(); s++ {
			for i := 0; i < 25; i++ {
				if j, ok := w.job(seed, fullScale, "/in", s, i); ok {
					out = append(out, j.Body)
				}
			}
		}
		return out
	}
	for _, w := range workloads {
		a, b, c := list(w, 7), list(w, 7), list(w, 8)
		if len(a) == 0 || !equalLists(a, b) {
			t.Errorf("%s: equal seeds gave different job lists", w.name)
		}
		// psa-reuse submits paths; its seed shapes the chain files instead.
		if w.name != "psa-reuse" && equalLists(a, c) {
			t.Errorf("%s: different seeds gave the same job list", w.name)
		}
		seen := make(map[string]bool)
		for _, body := range a {
			if w.name != "psa-reuse" && seen[string(body)] {
				t.Errorf("%s: job submitted twice (a whole-job cache hit): %s", w.name, body)
			}
			seen[string(body)] = true
		}
	}
	w, _ := workloadByName("psa-reuse")
	if w.synthSeed(7, 0) == w.synthSeed(8, 0) {
		t.Error("psa-reuse: chain contents do not depend on the seed")
	}
	if j, _ := w.job(1, fullScale, "/in", 0, 3); j.SameAs != 1 || j.N != 5 {
		t.Errorf("psa-reuse job 3 = resubmit of job %d with N=%d, want job 1, N=5", j.SameAs, j.N)
	}
}

func equalLists(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestContractIsWellFormed(t *testing.T) {
	ct, err := loadContract("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(ct.Workloads), len(workloads))
	}
	for i, w := range ct.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), ct.EndToEnd...), ct.PerLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q): bad or duplicate name or unit", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range ct.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup || len(ct.PerLayer) > 128 || len(ct.EndToEnd) > 16 {
		t.Errorf("setup_s present: %v; %d per-layer, %d end-to-end metrics", hasSetup, len(ct.PerLayer), len(ct.EndToEnd))
	}
}

func TestCorruptedResultCountsAsFailed(t *testing.T) {
	w, _ := workloadByName("psa-cold")
	j, _ := w.job(1, shortScale, "", 0, 0)
	ref, err := referenceResult(j.Body)
	if err != nil {
		t.Fatal(err)
	}
	good, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	ref.Matrix.Data[1] += 1e-9 // (0,1) no longer mirrors (1,0), and no longer matches the reference
	bad, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	outs := []outcome{
		{Job: j, Index: 0, Body: good},
		{Job: j, Index: 1, Body: bad},
		{Job: j, Index: 2, Body: good, Status: jobStatus{State: "done"}},
	}
	outs[2].Job.SameAs = 1 // a resubmission whose first run returned other bytes
	if failed := verify(outs, 3); failed != 2 || outs[0].Failure != "" || outs[1].Failure == "" || outs[2].Failure == "" {
		t.Errorf("failed = %d (%q, %q, %q), want the corrupted matrix and the unequal resubmission rejected",
			failed, outs[0].Failure, outs[1].Failure, outs[2].Failure)
	}
}

func TestCompareVerdicts(t *testing.T) {
	ct, err := loadContract("..")
	if err != nil {
		t.Fatal(err)
	}
	runs := func(lat ...float64) []runRecord {
		var recs []runRecord
		for _, v := range lat {
			m := make(map[string]measured)
			for _, d := range ct.EndToEnd {
				m[d.Name] = measured{Value: 1, Unit: d.Unit}
			}
			m["job_latency_p50_s"] = measured{Value: v, Unit: "s"}
			recs = append(recs, runRecord{Workload: "psa-cold", Metrics: m})
		}
		return recs
	}
	row := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "job_latency_p50_s") {
				return line
			}
		}
		return ""
	}
	var buf bytes.Buffer
	if code := compareRuns(&buf, ct, runs(1, 1.01, 0.99, 1), runs(1.02, 1, 1.01, 0.99)); code != 0 || !strings.HasSuffix(row(buf.String()), "ok") {
		t.Errorf("equal sides: exit %d, row %q", code, row(buf.String()))
	}
	buf.Reset()
	if code := compareRuns(&buf, ct, runs(1, 1.01, 0.99, 1), runs(2, 2.01, 1.99, 2)); code != 1 || !strings.HasSuffix(row(buf.String()), "worse") {
		t.Errorf("doubled latency: exit %d, row %q", code, row(buf.String()))
	}
	buf.Reset()
	if code := compareRuns(&buf, ct, runs(1, 2, 0.5, 1.5), runs(1, 2, 0.5, 1.5)); code != 0 || !strings.HasSuffix(row(buf.String()), "unresolved") {
		t.Errorf("wide spread: exit %d, row %q", code, row(buf.String()))
	}
	b := runs(1, 1, 1, 1)
	b[0].Failed = 1
	if code := compareRuns(&buf, ct, runs(1, 1, 1, 1), b); code != 1 {
		t.Errorf("a rise in failed jobs: exit %d, want 1", code)
	}
}

// counted lists the per-layer metrics that are counts or ratios of
// counts: on a fixed job list they must repeat exactly.
func counted(name string) bool {
	switch name {
	case "wal.appends_per_job", "psa.blocks_per_job", "engine.tasks_per_job", "hausdorff.frame_pairs",
		"leaflet.edges", "leaflet.tiles", "jobs.result_bytes", "blockstore.bytes_saved_per_job",
		"traj.bytes_streamed_per_job", "traj.peak_resident_frames", "hausdorff.indexed.nodes_visited_per_row":
		return true
	}
	return strings.HasPrefix(name, "hausdorff.") && strings.HasSuffix(name, "_share") ||
		strings.HasSuffix(name, "_hit_ratio")
}

// TestShortRuns drives the whole benchmark at the short scale against a
// real mdserver: every workload, untraced and traced, twice. It asserts
// presence, units and exact repetition of counts — never a time.
func TestShortRuns(t *testing.T) {
	ct, err := loadContract("..")
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	bin := filepath.Join(root, "mdserver")
	build := exec.Command("go", "build", "-o", bin, "./cmd/mdserver")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building mdserver: %v\n%s", err, out)
	}
	cfg := config{root: root, serverBin: bin, seed: 1, window: time.Minute, short: true, sc: shortScale, ct: ct}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg.trace = traced
			defs := ct.EndToEnd
			if traced {
				defs = ct.PerLayer
			}
			var prev *runRecord
			for rep := 0; rep < 2; rep++ {
				rec, err := runWorkload(context.Background(), cfg, w)
				if err != nil {
					t.Fatalf("%s traced=%v: %v", w.name, traced, err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted != w.clients*shortScale.maxJobs {
					t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d: %v", w.name, traced, rec.Correct, rec.Failed, rec.Attempted, rec.Failures)
				}
				if len(rec.Metrics) != len(defs) {
					t.Errorf("%s traced=%v: %d metrics reported, %d defined", w.name, traced, len(rec.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rec.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s: metric %s = %+v (present %v), want a finite value in %s", w.name, d.Name, m, ok, d.Unit)
					}
					// A short window is below the 10 ms tick of /proc CPU times.
					if !traced && m.Value <= 0 && d.Name != "cpu_s_per_job" {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, m.Value)
					}
					if prev != nil && counted(d.Name) && prev.Metrics[d.Name].Value != m.Value {
						t.Errorf("%s: counted metric %s did not repeat: %v then %v", w.name, d.Name, prev.Metrics[d.Name].Value, m.Value)
					}
				}
				prev = rec
			}
			if !traced {
				continue
			}
			m := prev.Metrics
			for _, method := range []string{"naive", "early-break", "pruned", "indexed"} {
				pre := "hausdorff." + method
				base := m["hausdorff.frame_pairs"].Value
				sum := math.Round((m[pre+".evaluated_share"].Value + m[pre+".abandoned_share"].Value + m[pre+".pruned_share"].Value) * base)
				if sum != base {
					t.Errorf("%s: shares cover %v of %v frame pairs", pre, sum, base)
				}
			}
			hit := m["blockstore.block_hit_ratio"].Value
			if reuse := w.name == "psa-reuse"; reuse != (hit > 0) {
				t.Errorf("%s: blockstore.block_hit_ratio = %v", w.name, hit)
			}
			if _, err := os.Stat(filepath.Join(root, "benchmark", "out", "trace-"+w.name+".json")); err != nil {
				t.Errorf("%s: no Chrome trace written: %v", w.name, err)
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(root, ".bench_build", "tmp", "*")); len(left) != 0 {
		t.Errorf("temporary directories left behind: %v", left)
	}
}
