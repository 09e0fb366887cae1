// Command leaflet runs the Leaflet Finder over a membrane snapshot (a
// single-frame .mdt file, or a generated bilayer) on a selectable engine
// and architectural approach, reporting the identified leaflets. The run
// is dispatched through the jobs.Registry — the same runners
// cmd/mdserver serves over HTTP.
//
// Usage:
//
//	leaflet -atoms 65536 -engine spark -approach tree
//	leaflet -in membrane.mdt -engine mpi -approach 3
//	leaflet -atoms 4096 -engine serial
//	leaflet -atoms 4096 -engine fleet      # loopback coordinator/worker fleet
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mdtask/internal/jobs"
	"mdtask/internal/obs"
	"mdtask/internal/synth"
)

func main() {
	var (
		in       = flag.String("in", "", "single-frame .mdt membrane file (default: generate)")
		atoms    = flag.Int("atoms", 65536, "atom count when generating a membrane")
		seed     = flag.Uint64("seed", 42, "generator seed")
		engine   = flag.String("engine", "spark", "engine: serial | mpi | spark | dask | pilot | fleet")
		approach = flag.String("approach", "tree", "approach: 1|broadcast, 2|task2d, 3|parallel-cc, 4|tree")
		cutoff   = flag.Float64("cutoff", synth.BilayerCutoff, "neighbor cutoff (Å)")
		parallel = flag.Int("parallel", 0, "worker/rank count (0: automatic)")
		tasks    = flag.Int("tasks", 1024, "upper bound on the map task count (tree plans fewer, by cost, for the -parallel workers)")
		version  = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("leaflet", obs.Version())
		return
	}
	// Reject unknown selector values at flag-parse time, before any input
	// is loaded or a run starts; the errors list the valid values.
	if err := validateFlags(*engine, *approach); err != nil {
		fmt.Fprintln(os.Stderr, "leaflet:", err)
		os.Exit(2)
	}
	if err := run(*in, *atoms, *seed, *engine, *approach, *cutoff, *parallel, *tasks); err != nil {
		fmt.Fprintln(os.Stderr, "leaflet:", err)
		os.Exit(1)
	}
}

// validateFlags checks the enumerated flag values up front.
func validateFlags(engineName, approachName string) error {
	if _, err := jobs.ParseEngine(engineName); err != nil {
		return fmt.Errorf("-engine: %w", err)
	}
	if _, _, err := jobs.ParseApproach(approachName); err != nil {
		return fmt.Errorf("-approach: %w", err)
	}
	return nil
}

func run(in string, atoms int, seed uint64, engineName, approachName string,
	cutoff float64, parallel, tasks int) error {
	spec := jobs.Spec{
		Analysis:    jobs.AnalysisLeaflet,
		Engine:      engineName,
		Parallelism: parallel,
		Tasks:       tasks,
		Approach:    approachName,
		Cutoff:      cutoff,
	}
	if in != "" {
		spec.Path = in
	} else {
		spec.Synth = &jobs.SynthSpec{Atoms: atoms, Seed: seed}
	}
	norm, input, err := jobs.Resolve(spec)
	if err != nil {
		return err
	}
	if in != "" {
		fmt.Printf("loaded %s: %d atoms\n", in, len(input.Coords))
	} else {
		fmt.Printf("generated bilayer: %d atoms, cutoff %.1f Å\n", len(input.Coords), cutoff)
	}
	start := time.Now()
	out, _, err := jobs.Run(jobs.DefaultRegistry(), norm, input)
	if err != nil {
		return err
	}
	res := out.Leaflet
	fmt.Printf("engine=%s approach=%q elapsed=%s\n", engineName, approachName, time.Since(start).Round(time.Millisecond))
	fmt.Printf("tasks=%d edges=%d broadcast=%dB shuffle=%dB\n",
		res.Stats.Tasks, res.Stats.Edges, res.Stats.BroadcastBytes, res.Stats.ShuffleBytes)
	fmt.Printf("components: %d\n", len(res.Components))
	for i, c := range res.Components {
		if i >= 4 {
			fmt.Printf("  ... and %d more\n", len(res.Components)-4)
			break
		}
		fmt.Printf("  leaflet %d: %d atoms (first atom %d)\n", i, len(c), c[0])
	}
	return nil
}
