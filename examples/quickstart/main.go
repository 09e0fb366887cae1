// Quickstart: generate a small trajectory ensemble, run Path Similarity
// Analysis on the Dask-like engine as a one-shot job, and print the
// Hausdorff distance matrix.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"mdtask/internal/jobs"
)

func main() {
	// Six random-walk trajectories of 200 atoms over 40 frames,
	// generated from the spec and run on four Dask-like workers.
	spec := jobs.Spec{
		Analysis:    jobs.AnalysisPSA,
		Engine:      jobs.EngineDask,
		Parallelism: 4,
		Method:      "early-break",
		Synth:       &jobs.SynthSpec{Count: 6, Atoms: 200, Frames: 40, Seed: 1},
	}
	_, res, _, err := jobs.RunLocal(jobs.DefaultRegistry(), spec)
	if err != nil {
		log.Fatal(err)
	}

	m := res.Matrix
	fmt.Println("PSA Hausdorff distance matrix (Å):")
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			fmt.Printf("%7.2f", m.At(i, j))
		}
		fmt.Println()
	}
}
