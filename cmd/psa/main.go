// Command psa runs Path Similarity Analysis (all-pairs Hausdorff
// distances) over a directory of .mdt trajectories on a selectable
// task-parallel engine and prints the distance matrix. The run is
// dispatched through the jobs.Registry — the same runners cmd/mdserver
// serves over HTTP.
//
// Usage:
//
//	psa -in data/ -engine dask -parallel 8 -method pruned
//	psa -in data/ -engine serial           # single-goroutine reference
//	psa -in data/ -engine mpi -sym=false   # paper-faithful full N×N schedule
//	psa -in data/ -engine fleet -parallel 4  # loopback coordinator/worker fleet
//	psa -in data/ -max-frames 256          # out-of-core: stream 256-frame windows
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mdtask/internal/graph"
	"mdtask/internal/jobs"
	"mdtask/internal/obs"
	"mdtask/internal/psa"
)

func main() {
	var (
		in       = flag.String("in", ".", "directory of .mdt trajectory files")
		engine   = flag.String("engine", "dask", "engine: serial | mpi | spark | dask | pilot | fleet")
		parallel = flag.Int("parallel", 0, "worker/rank count (0: automatic)")
		method   = flag.String("method", "naive", "hausdorff method: naive | early-break | pruned | indexed")
		tasks    = flag.Int("tasks", 0, "task count (0: one per worker)")
		clusters = flag.Int("clusters", 0, "also cluster trajectories into k groups (0: off)")
		sym      = flag.Bool("sym", true, "exploit H(A,B)=H(B,A): schedule only diagonal+upper blocks (-sym=false: paper-faithful full matrix)")
		maxFr    = flag.Int("max-frames", 0, "stream trajectories as windows of at most this many frames (out-of-core; 0: fully in memory)")
		version  = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("psa", obs.Version())
		return
	}
	// Reject unknown selector values at flag-parse time, before any input
	// is loaded or a run starts; the errors list the valid values.
	if err := validateFlags(*engine, *method); err != nil {
		fmt.Fprintln(os.Stderr, "psa:", err)
		os.Exit(2)
	}
	if err := run(*in, *engine, *parallel, *method, *tasks, *clusters, *sym, *maxFr); err != nil {
		fmt.Fprintln(os.Stderr, "psa:", err)
		os.Exit(1)
	}
}

// validateFlags checks the enumerated flag values up front.
func validateFlags(engineName, methodName string) error {
	if _, err := jobs.ParseEngine(engineName); err != nil {
		return fmt.Errorf("-engine: %w", err)
	}
	if _, err := jobs.ParseMethod(methodName); err != nil {
		return fmt.Errorf("-method: %w", err)
	}
	return nil
}

func run(in, engineName string, parallel int, methodName string, tasks, clusters int, sym bool, maxFrames int) error {
	spec := jobs.Spec{
		Analysis:          jobs.AnalysisPSA,
		Engine:            engineName,
		Parallelism:       parallel,
		Tasks:             tasks,
		Method:            methodName,
		FullMatrix:        !sym,
		MaxResidentFrames: maxFrames,
		Path:              in,
	}
	norm, input, err := jobs.Resolve(spec)
	if err != nil {
		return err
	}
	refs := input.Refs
	mode := "loaded"
	if norm.MaxResidentFrames > 0 {
		mode = "streaming"
	}
	fmt.Printf("%s %d trajectories (%d atoms, %d frames each)\n",
		mode, len(refs), refs[0].NAtoms(), refs[0].NFrames())
	start := time.Now()
	res, metrics, err := jobs.Run(jobs.DefaultRegistry(), norm, input)
	if err != nil {
		return err
	}
	mat := res.Matrix
	schedule := "symmetric"
	if !sym {
		schedule = "full"
	}
	fmt.Printf("engine=%s method=%s schedule=%s tasks=%d elapsed=%s\n",
		engineName, methodName, schedule, metrics.Tasks, time.Since(start).Round(time.Millisecond))
	fmt.Printf("kernel frame pairs: evaluated=%d pruned=%d abandoned=%d\n",
		metrics.PairsEvaluated, metrics.PairsPruned, metrics.PairsAbandoned)
	if metrics.NodesVisited+metrics.NodesPruned > 0 {
		fmt.Printf("ball-tree nodes: visited=%d pruned=%d\n",
			metrics.NodesVisited, metrics.NodesPruned)
	}
	if maxFrames > 0 {
		fmt.Printf("streaming: window=%d frames, peak resident=%d frames, bytes streamed=%d\n",
			maxFrames, metrics.PeakResidentFrames, metrics.BytesStreamed)
	}
	for i := 0; i < mat.N; i++ {
		for j := 0; j < mat.N; j++ {
			fmt.Printf("%8.3f", mat.At(i, j))
		}
		fmt.Println()
	}
	if clusters > 0 {
		dendro, err := mat.Cluster(psa.AverageLinkage)
		if err != nil {
			return err
		}
		labels, err := dendro.CutK(clusters)
		if err != nil {
			return err
		}
		fmt.Printf("clusters (k=%d, average linkage):\n", clusters)
		for gi, group := range graph.Groups(labels) {
			fmt.Printf("  cluster %d:", gi)
			for _, ix := range group {
				fmt.Printf(" %s", refs[ix].Name())
			}
			fmt.Println()
		}
	}
	return nil
}
