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

// leafletAccounting pins, per engine/approach at the matrix's 2000-atom,
// 16-task point, the result's Stats.ShuffleBytes and Stats.Tasks and the
// tasks the executor recorded. The 16-task grid has 15 tiles, of which
// the plan keeps the 11 live ones (dask: 3 × 11 − 1 graph nodes with
// the bag fold). Dropping dead tiles and the partial merge are pure
// speedups: neither may move a shuffle, mpi's post-combine one (the
// per-rank merged partials' wire size) included.
var leafletAccounting = map[string]struct{ shuffle, tasks, ran int64 }{
	"serial/broadcast":   {0, 1, 1},
	"serial/task2d":      {0, 1, 1},
	"serial/parallel-cc": {0, 1, 1},
	"serial/tree":        {0, 1, 1},
	"spark/broadcast":    {78824, 16, 16},
	"spark/task2d":       {78824, 11, 11},
	"spark/parallel-cc":  {9740, 11, 11},
	"spark/tree":         {9740, 11, 11},
	"dask/broadcast":     {78824, 16, 17},
	"dask/task2d":        {78824, 11, 11},
	"dask/parallel-cc":   {9740, 11, 32},
	"dask/tree":          {9740, 11, 32},
	"mpi/broadcast":      {78824, 2, 2},
	"mpi/task2d":         {78824, 11, 11},
	"mpi/parallel-cc":    {8216, 11, 11},
	"mpi/tree":           {8216, 11, 11},
	"pilot/task2d":       {78824, 11, 11},
	"fleet/broadcast":    {9740, 11, 11},
	"fleet/task2d":       {9740, 11, 11},
	"fleet/parallel-cc":  {9740, 11, 11},
	"fleet/tree":         {9740, 11, 11},
}

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
				pin, ok := leafletAccounting[engine+"/"+approach]
				if !ok {
					t.Fatal("no pinned accounting for this engine/approach")
				}
				if st := res.Leaflet.Stats; st.ShuffleBytes != pin.shuffle || int64(st.Tasks) != pin.tasks || metrics.Tasks != pin.ran {
					t.Fatalf("shuffle %d B, %d tasks, %d ran; pinned %d B, %d, %d",
						st.ShuffleBytes, st.Tasks, metrics.Tasks, pin.shuffle, pin.tasks, pin.ran)
				}
			})
		}
	}
}
