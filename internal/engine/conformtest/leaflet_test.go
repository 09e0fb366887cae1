// The Leaflet Finder column of the conformance matrix: every engine ×
// every approach it supports must partition one seeded membrane exactly
// as the untiled serial reference does, find the same number of edges,
// and run the number of tasks its plan promised.
package conformtest

import (
	"testing"

	"mdtask/internal/jobs"
	"mdtask/internal/leaflet"
	"mdtask/internal/synth"
)

func TestLeafletEngineConformance(t *testing.T) {
	const atoms, seed, tasks = 2000, 31, 16
	reg := jobs.DefaultRegistry()
	want := leaflet.Serial(synth.Bilayer(atoms, seed).Coords, synth.BilayerCutoff)
	if len(want.Components) != 2 {
		t.Fatalf("reference found %d components", len(want.Components))
	}

	for _, engine := range jobs.Engines {
		approaches := []string{"broadcast", "task2d", "parallel-cc", "tree"}
		if engine == jobs.EnginePilot {
			approaches = []string{"task2d"} // the only dataflow the pilot stages
		}
		for _, approach := range approaches {
			t.Run(engine+"/"+approach, func(t *testing.T) {
				spec, in, err := jobs.Resolve(jobs.Spec{
					Analysis:    jobs.AnalysisLeaflet,
					Engine:      engine,
					Approach:    approach,
					Parallelism: 2,
					Tasks:       tasks,
					Synth:       &jobs.SynthSpec{Atoms: atoms, Seed: seed},
				})
				if err != nil {
					t.Fatal(err)
				}
				res, metrics, err := jobs.RunCached(reg, spec, in, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !leaflet.Equal(res.Leaflet, want) {
					t.Fatal("partition differs from leaflet.Serial")
				}
				if res.Leaflet.Stats.Edges != want.Stats.Edges {
					t.Fatalf("edges = %d, want %d", res.Leaflet.Stats.Edges, want.Stats.Edges)
				}
				// Progress is tasks / planned, so the plan must be what
				// the run records — on dask every graph node, scatter
				// and bag fold included (see docs/engines.md).
				if planned := int64(jobs.PlannedTasks(spec, in)); planned <= 0 || metrics.Tasks != planned {
					t.Fatalf("ran %d tasks, planned %d", metrics.Tasks, planned)
				}
			})
		}
	}
}
