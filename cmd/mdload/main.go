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
// It is also the one harness behind the make targets that check a live
// server: -scenario smoke-serve, smoke-cache, smoke-fleet, smoke-obs,
// smoke-crash or loadgate boots that gate's own mdserver and mdworker
// processes from the directory mdload sits in (each on an ephemeral
// loopback port), kills and restarts them on cue, reaps every one on
// exit, and prints their logs when the gate fails. The loadgate writes
// its chaos leg's report next to -json's, with _chaos before .json.
//
// The -gate mode exits non-zero when any invariant fails.
//
// Usage:
//
//	mdload -server http://127.0.0.1:8077                  # full suite
//	mdload -server ... -scenario overload,cancel-storm    # a subset
//	mdload -server ... -gate -json load.json              # gate the suite
//	mdload -scenario smoke-crash -gate                    # a make target's gate
//	mdload -list                                          # scenario ids
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"mdtask/internal/loadgen"
)

func main() {
	var (
		server    = flag.String("server", "http://127.0.0.1:8077", "base URL of the live mdserver (gates boot their own)")
		scenario  = flag.String("scenario", "all", "comma-separated scenario names, 'all' for the load suite, or one gate")
		jobsN     = flag.Int("jobs", 24, "submission count every scenario scales from")
		conc      = flag.Int("concurrency", 8, "closed-loop client count")
		seed      = flag.Uint64("seed", 1, "deterministic seed for every generated job spec")
		oversized = flag.Int64("oversized-bytes", 2<<20, "size of the 413 probe body")
		jsonPath  = flag.String("json", "", "write the full report as JSON (the loadgate's chaos leg: the same name with _chaos)")
		gate      = flag.Bool("gate", false, "exit non-zero when any invariant fails")
		list      = flag.Bool("list", false, "list scenario names and exit")
	)
	flag.Parse()
	if err := run(config{
		server: *server, scenario: *scenario, jobs: *jobsN, conc: *conc,
		seed: *seed, oversized: *oversized,
		jsonPath: *jsonPath, gate: *gate, list: *list,
	}, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mdload:", err)
		os.Exit(1)
	}
}

type config struct {
	server, scenario string
	jobs, conc       int
	seed             uint64
	oversized        int64
	jsonPath         string
	gate, list       bool
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
	if len(names) == 0 {
		names = []string{"all"}
	}
	cfg := loadgen.Config{
		Server:         c.server,
		Jobs:           c.jobs,
		Concurrency:    c.conc,
		Seed:           c.seed,
		OversizedBytes: c.oversized,
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "mdload: "+format+"\n", args...)
		},
	}
	var (
		reps []*loadgen.Report
		sup  *loadgen.Supervisor
		err  error
	)
	if sc, ok := loadgen.Lookup(names[0]); ok && sc.Boots() && len(names) == 1 {
		if sup, err = supervise(); err != nil {
			return err
		}
		reps, err = loadgen.RunGate(cfg, sc.Name, sup)
	} else {
		var rep *loadgen.Report
		if rep, err = loadgen.Run(cfg, names); rep != nil {
			reps = append(reps, rep)
		}
	}
	ok := err == nil
	for i, rep := range reps {
		path := c.jsonPath
		if i > 0 && path != "" {
			path = strings.TrimSuffix(path, ".json") + "_chaos.json"
		}
		if werr := write(stdout, rep, path); werr != nil && err == nil {
			err = werr
		}
		ok = ok && rep.OK
	}
	if sup != nil && !ok {
		fmt.Fprintf(os.Stderr, "mdload: %s FAILED; child process logs:\n", names[0])
		sup.WriteLogs(os.Stderr)
	}
	switch {
	case err != nil:
		return err
	case c.gate && !ok:
		return errGate
	case sup != nil && ok:
		fmt.Fprintf(stdout, "%s: OK\n", names[0])
	}
	return nil
}

// supervise returns a supervisor for the binaries beside mdload's own
// and reaps its children when SIGINT, SIGTERM or SIGHUP ends mdload.
func supervise() (*loadgen.Supervisor, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	sup, err := loadgen.NewSupervisor(filepath.Dir(exe))
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sig
		sup.Close()
		fmt.Fprintf(os.Stderr, "mdload: %s: children reaped\n", s)
		os.Exit(1)
	}()
	return sup, err
}

// write prints the report and, when path is set, writes it as JSON.
func write(stdout io.Writer, rep *loadgen.Report, path string) error {
	loadgen.WriteReport(stdout, rep)
	if path == "" {
		return nil
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nwrote %s\n", path)
	return nil
}
