// Command benchmark is the repository's one benchmark: it boots a real
// cmd/mdserver child in its production configuration, drives one of
// four named workloads against it closed-loop over loopback HTTP,
// verifies every result, and prints the metrics BENCHMARK.json names.
// A traced run (-trace 1) replays a sample of the workload in-process
// under spans and adds fixed-input micro-passes to report one number
// per layer instead. See README.md.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash benchmark/run.sh --workload psa-cold --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -out a.jsonl            # all four workloads, appended to a.jsonl
//	bash benchmark/run.sh -compare a.jsonl b.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		root     = flag.String("root", ".", "checkout root (holds BENCHMARK.json; build and scratch files go under .bench_build/)")
		serverAt = flag.String("server", "", "mdserver binary (default <root>/.bench_build/bin/mdserver, where run.sh builds it)")
		names    = flag.String("workload", "all", "workloads to run, comma separated, or all")
		seed     = flag.Uint64("seed", 1, "workload seed: the job list is a pure function of it")
		seconds  = flag.Float64("seconds", 0, "measurement window per run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, spans off; 1: the traced per-layer run")
		short    = flag.Bool("short", false, "tiny shapes and fixed job counts (what the tests run)")
		out      = flag.String("out", "", "append one JSON line per run to this file (the input of -compare)")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments instead of running")
	)
	flag.Parse()
	ct, err := loadContract(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two report files")
			return 2
		}
		return compareFiles(os.Stdout, ct, flag.Arg(0), flag.Arg(1))
	}
	cfg := config{
		root: *root, serverBin: *serverAt, seed: *seed, trace: *trace != 0, short: *short,
		window: time.Duration(*seconds * float64(time.Second)), sc: fullScale, ct: ct,
	}
	if cfg.serverBin == "" {
		cfg.serverBin = filepath.Join(*root, ".bench_build", "bin", "mdserver")
	}
	if cfg.window <= 0 {
		cfg.window = time.Duration(ct.RunSeconds) * time.Second
	}
	if *short {
		cfg.sc = shortScale
	}
	var todo []workload
	for _, name := range strings.Split(*names, ",") {
		if name == "all" {
			todo = append(todo, workloads...)
		} else if w, ok := workloadByName(name); ok {
			todo = append(todo, w)
		} else {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
			return 2
		}
	}
	// SIGINT/SIGTERM cancel the run; every exit path below unwinds
	// through the deferred clean-up that reaps the server and removes
	// the temporary directories.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	status := 0
	for _, w := range todo {
		rec, err := runWorkload(ctx, cfg, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if !rec.Correct {
			status = 1
		}
		printRecord(rec)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		// The contract line: the last line of standard output.
		line, err := json.Marshal(map[string]any{
			"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": rec.Metrics,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return status
}

// printRecord prints one run for a reader: every metric by name with
// its unit, the sample count behind the percentiles, and the failures
// over their base.
func printRecord(rec *runRecord) {
	mode := "end-to-end"
	if rec.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Printf("== %s  seed=%d  %s  clients=%d  n=%d timed jobs in %.2fs  failed=%d/%d (failed_share %.4f)\n",
		rec.Workload, rec.Seed, mode, rec.Clients, rec.Attempted, rec.WindowSeconds,
		rec.Failed, rec.Attempted, float64(rec.Failed)/float64(rec.Attempted))
	h := rec.Host
	fmt.Printf("   commit=%s %s nproc=%d GOMAXPROCS=%d fs=%s load1=%.2f loadgen_cpu_share=%.3f flags=%v\n",
		h.Commit, h.GoVersion, h.NProc, h.GoMaxProcs, h.FSType, h.Load1, rec.LoadgenCPUShare, rec.Flags)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Printf("   %-46s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, f := range rec.Failures {
		fmt.Println("   FAILED:", f)
	}
}

func appendRecord(path string, rec *runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
