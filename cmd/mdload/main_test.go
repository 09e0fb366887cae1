package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdtask/internal/jobs"
	"mdtask/internal/loadgen"
	"mdtask/internal/obs"
)

func TestListScenarios(t *testing.T) {
	var out bytes.Buffer
	if err := run(config{list: true}, &out); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	for _, sc := range loadgen.Scenarios() {
		if !strings.Contains(out.String(), sc.Name) {
			t.Errorf("-list output missing %q", sc.Name)
		}
	}
}

func TestUnknownScenario(t *testing.T) {
	var out bytes.Buffer
	err := run(config{server: "http://127.0.0.1:1", scenario: "bogus"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("err = %v, want unknown scenario", err)
	}
}

// TestRunWritesReports drives one real scenario against an in-process
// scheduler and checks the table, JSON, and CSV outputs land.
func TestRunWritesReports(t *testing.T) {
	ob := obs.New("mdload-test")
	obs.RegisterRuntimeMetrics(ob.Metrics)
	sched := jobs.NewScheduler(jobs.DefaultRegistry(), jobs.Options{Workers: 2, QueueDepth: 16, Obs: ob})
	defer sched.Close()
	mux := http.NewServeMux()
	mux.Handle("/metrics", ob.Metrics.Handler())
	mux.Handle("/", jobs.NewServerWith(sched, jobs.ServerOptions{}))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "load.json")
	var out bytes.Buffer
	err := run(config{
		server: srv.URL, scenario: "resubmit-storm", jobs: 3, conc: 2, seed: 11,
		jsonPath: jsonPath, gate: true,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "resubmit-storm") || !strings.Contains(out.String(), "invariants:") {
		t.Fatalf("report output missing sections:\n%s", out.String())
	}

	blob, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("reading %s: %v", jsonPath, err)
	}
	var rep loadgen.Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("JSON report does not parse: %v", err)
	}
	if rep.Benchmark != "mdserver-load" || !rep.OK || len(rep.Scenarios) != 1 {
		t.Fatalf("unexpected report: %+v", rep)
	}

}
