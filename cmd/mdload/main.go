// Command mdload drives the production load harness (internal/loadgen)
// against a live mdserver: named Savina-style scenarios — cache-hot
// resubmit storms, delta-append storms, fleet fan-out across all four
// Hausdorff methods, cancel storms, streamed-vs-in-memory mixes, queue
// overload with a 413 probe, and chaos against MDTASK_FAULTS-armed
// workers — each checked against deterministic invariants (lost jobs,
// counter mismatches, missing Retry-After, WAL skips, goroutine leaks)
// and reported as text and, with -json, as a JSON report. Time is not
// measured here; the end-to-end benchmark (benchmark/) owns it.
//
// The -gate mode exits non-zero when any invariant fails.
//
// Usage:
//
//	mdload -server http://127.0.0.1:8077                  # full suite
//	mdload -server ... -scenario overload,cancel-storm    # a subset
//	mdload -server ... -gate -json load.json              # CI gate
//	mdload -list                                          # scenario ids
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mdtask/internal/loadgen"
)

func main() {
	var (
		server     = flag.String("server", "http://127.0.0.1:8077", "base URL of the live mdserver")
		scenario   = flag.String("scenario", "all", "comma-separated scenario names (or 'all')")
		jobsN      = flag.Int("jobs", 24, "submission count every scenario scales from")
		conc       = flag.Int("concurrency", 8, "closed-loop client count")
		warmup     = flag.Duration("warmup", 0, "unrecorded warmup before the first scenario")
		duration   = flag.Duration("duration", 0, "cap on each scenario's storm phase (0: run the full job count)")
		seed       = flag.Uint64("seed", 1, "deterministic seed for every generated job spec")
		chaos      = flag.Bool("chaos", false, "require fault evidence from the chaos scenario (workers must run with MDTASK_FAULTS)")
		expectShed = flag.Bool("expect-shed", false, "require the overload scenario to provoke 429s (set when the queue is sized below concurrency)")
		reqWorkers = flag.Bool("require-workers", false, "fail fleet scenarios instead of skipping when no workers are registered")
		oversized  = flag.Int64("oversized-bytes", 2<<20, "size of the 413 probe body")
		jsonPath   = flag.String("json", "", "write the full report as JSON")
		gate       = flag.Bool("gate", false, "exit non-zero when any invariant fails")
		list       = flag.Bool("list", false, "list scenario names and exit")
	)
	flag.Parse()
	if err := run(config{
		server: *server, scenario: *scenario, jobs: *jobsN, conc: *conc,
		warmup: *warmup, duration: *duration, seed: *seed, chaos: *chaos,
		expectShed: *expectShed, reqWorkers: *reqWorkers, oversized: *oversized,
		jsonPath: *jsonPath, gate: *gate, list: *list,
	}, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mdload:", err)
		os.Exit(1)
	}
}

type config struct {
	server, scenario  string
	jobs, conc        int
	warmup, duration  time.Duration
	seed              uint64
	chaos, expectShed bool
	reqWorkers, gate  bool
	oversized         int64
	jsonPath          string
	list              bool
}

// errGate marks an invariant failure so main exits non-zero after the
// report (text, JSON) has already been written.
var errGate = fmt.Errorf("invariant failures (see report above)")

func run(c config, stdout io.Writer) error {
	if c.list {
		for _, sc := range loadgen.Scenarios() {
			fmt.Fprintf(stdout, "%-16s %s\n", sc.Name, sc.Description)
		}
		return nil
	}
	var names []string
	for _, n := range strings.Split(c.scenario, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	rep, err := loadgen.Run(loadgen.Config{
		Server:         c.server,
		Jobs:           c.jobs,
		Concurrency:    c.conc,
		Warmup:         c.warmup,
		Duration:       c.duration,
		Seed:           c.seed,
		Chaos:          c.chaos,
		ExpectShedding: c.expectShed,
		RequireWorkers: c.reqWorkers,
		OversizedBytes: c.oversized,
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "mdload: "+format+"\n", args...)
		},
	}, names)
	if err != nil {
		return err
	}
	loadgen.WriteReport(stdout, rep)
	if c.jsonPath != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(c.jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote %s\n", c.jsonPath)
	}
	if c.gate && !rep.OK {
		return errGate
	}
	return nil
}
