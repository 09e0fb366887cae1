// PSA ensemble example: run the same Path Similarity Analysis on all
// four task-parallel engines (§4.2 of the paper), verify they agree, and
// compare wall-clock times — the embarrassing-parallel case where the
// paper finds framework choice matters little.
//
// Run with: go run ./examples/psaensemble
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"mdtask/internal/jobs"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

func main() {
	ens := synth.Ensemble(synth.EnsemblePreset{Name: "ens", NAtoms: 400, NFrames: 30}, 8, 11)
	fmt.Printf("ensemble: %d trajectories x %d atoms x %d frames\n\n",
		len(ens), ens[0].NAtoms, ens[0].NFrames())

	in := &jobs.Input{Refs: traj.RefsOf(ens)}
	var reference []float64
	fmt.Printf("%-14s %-10s %10s %8s\n", "engine", "schedule", "elapsed", "agrees")
	for _, eng := range []string{jobs.EngineMPI, jobs.EngineSpark, jobs.EngineDask, jobs.EnginePilot} {
		for _, full := range []bool{true, false} {
			schedule := "symmetric"
			if full {
				schedule = "full"
			}
			spec := jobs.Spec{Analysis: jobs.AnalysisPSA, Engine: eng, Parallelism: 4, Tasks: 16,
				FullMatrix: full, Method: "early-break"}
			start := time.Now()
			res, _, err := jobs.Run(jobs.DefaultRegistry(), spec, in)
			if err != nil {
				log.Fatalf("%v: %v", eng, err)
			}
			m := res.Matrix
			elapsed := time.Since(start)
			agrees := "ref"
			if reference == nil {
				reference = m.Data
			} else {
				agrees = "yes"
				for i := range reference {
					if math.Abs(reference[i]-m.Data[i]) > 1e-9 {
						agrees = "NO"
						break
					}
				}
			}
			fmt.Printf("%-14s %-10s %10s %8s\n", eng, schedule, elapsed.Round(time.Millisecond), agrees)
		}
	}
	fmt.Println("\nall engines and both schedules compute the identical distance")
	fmt.Println("matrix; the symmetric schedule does it with ~half the Hausdorff")
	fmt.Println("kernel invocations (H(A,B)=H(B,A)), and for this embarrassingly")
	fmt.Println("parallel analysis the paper finds programmability, not engine")
	fmt.Println("choice, is the deciding factor (§4.2).")
}
