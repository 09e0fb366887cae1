// Membrane example: identify the leaflets of a synthetic lipid bilayer
// with all four architectural approaches of the paper's Leaflet Finder
// (§4.3, Table 2) on the Spark-like engine, comparing their measured
// data-movement profiles.
//
// Run with: go run ./examples/membrane
package main

import (
	"fmt"
	"log"
	"strconv"
	"time"

	"mdtask/internal/jobs"
	"mdtask/internal/leaflet"
	"mdtask/internal/synth"
)

func main() {
	const nAtoms = 65536
	sys := synth.Bilayer(nAtoms, 2024)
	lo, hi := sys.CountLeaflets()
	fmt.Printf("membrane: %d atoms (ground truth leaflets %d / %d), cutoff %.1f Å\n\n",
		nAtoms, lo, hi, synth.BilayerCutoff)

	fmt.Printf("%-32s %8s %10s %12s %12s %9s\n",
		"approach", "tasks", "edges", "broadcast", "shuffle", "elapsed")
	for _, approach := range leaflet.Approaches {
		spec := jobs.Spec{Analysis: jobs.AnalysisLeaflet, Engine: jobs.EngineSpark, Tasks: 256,
			Approach: strconv.Itoa(int(approach)), Cutoff: synth.BilayerCutoff}
		start := time.Now()
		job, _, err := jobs.Run(jobs.DefaultRegistry(), spec, &jobs.Input{Coords: sys.Coords})
		if err != nil {
			log.Fatalf("%v: %v", approach, err)
		}
		res := job.Leaflet
		elapsed := time.Since(start)
		if len(res.Components) != 2 {
			log.Fatalf("%v: found %d components, want 2", approach, len(res.Components))
		}
		fmt.Printf("%-32s %8d %10d %12d %12d %9s\n",
			approach, res.Stats.Tasks, res.Stats.Edges,
			res.Stats.BroadcastBytes, res.Stats.ShuffleBytes,
			elapsed.Round(time.Millisecond))
	}
	fmt.Println("\nnote the shuffle-volume drop from the edge-list approaches (1-2)")
	fmt.Println("to the partial-component approaches (3-4) — the paper's Table 2.")
}
