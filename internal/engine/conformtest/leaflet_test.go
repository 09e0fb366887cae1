// The Leaflet Finder column of the conformance matrix: every engine ×
// every approach must partition one seeded membrane exactly
// as the untiled serial reference does, find the same number of edges,
// and run the number of tasks its engine planned.
package conformtest

import (
	"slices"
	"testing"

	"mdtask/internal/blockstore"
	"mdtask/internal/jobs"
	"mdtask/internal/leaflet"
	"mdtask/internal/synth"
)

// leafletAccounting pins, per engine/approach at the matrix's 2000-atom,
// 16-task point, the result's Stats.ShuffleBytes and Stats.Tasks and the
// tasks the executor recorded. The 16-task grid has 15 tiles, of which
// the fine plan keeps the 11 live ones. Approaches 1 and 2 shuffle the
// collected edges; Approaches 3 and 4 the partial components every
// tile hands the one combine (leaflet.FromPartials), on every engine
// alike. Over the fine grid's live tiles that is 9740 B: dropping dead
// tiles is a pure speedup and moves no shuffle. The tree approach plans
// coarser tiles by cost for the spec's workers (leaflet.Tiles): 8 for
// parallelism 2, whose partials overlap less, 9300 B; the serial
// engine plans for one worker, 5 tiles and 8848 B, and otherwise runs
// leaflet.Run on the serial executor like every other executor. Dask
// plans one graph node per task plus the scatter of Approach 1. The
// staged engines (pilot, fleet) run every approach as one unit per tile
// of that plan shipping its partial components, so their cells are
// equal.
var leafletAccounting = map[string]struct{ shuffle, tasks, ran int64 }{
	"serial/broadcast":   {78824, 16, 16},
	"serial/task2d":      {78824, 11, 11},
	"serial/parallel-cc": {9740, 11, 11},
	"serial/tree":        {8848, 5, 5},
	"spark/broadcast":    {78824, 16, 16},
	"spark/task2d":       {78824, 11, 11},
	"spark/parallel-cc":  {9740, 11, 11},
	"spark/tree":         {9300, 8, 8},
	"dask/broadcast":     {78824, 16, 17},
	"dask/task2d":        {78824, 11, 11},
	"dask/parallel-cc":   {9740, 11, 11},
	"dask/tree":          {9300, 8, 8},
	"mpi/broadcast":      {78824, 2, 2},
	"mpi/task2d":         {78824, 11, 11},
	"mpi/parallel-cc":    {9740, 11, 11},
	"mpi/tree":           {9300, 8, 8},
	"pilot/broadcast":    {9740, 11, 11},
	"pilot/task2d":       {9740, 11, 11},
	"pilot/parallel-cc":  {9740, 11, 11},
	"pilot/tree":         {9300, 8, 8},
	"fleet/broadcast":    {9740, 11, 11},
	"fleet/task2d":       {9740, 11, 11},
	"fleet/parallel-cc":  {9740, 11, 11},
	"fleet/tree":         {9300, 8, 8},
}

func TestLeafletEngineConformance(t *testing.T) {
	const atoms, seed, tasks = 2000, 31, 16
	reg := jobs.DefaultRegistry()
	want := leaflet.Serial(synth.Bilayer(atoms, seed).Coords, synth.BilayerCutoff)
	if len(want.Components) != 2 {
		t.Fatalf("reference found %d components", len(want.Components))
	}

	for _, engine := range jobs.Engines {
		for _, approach := range []string{"broadcast", "task2d", "parallel-cc", "tree"} {
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
				if !slices.Equal(res.Leaflet.Labels, want.Labels) {
					t.Fatal("partition differs from leaflet.Serial")
				}
				if res.Leaflet.Stats.Edges != want.Stats.Edges {
					t.Fatalf("edges = %d, want %d", res.Leaflet.Stats.Edges, want.Stats.Edges)
				}
				// Progress is tasks ÷ planned, and each engine plans what
				// it schedules — on dask every graph node, scatter
				// included (see docs/engines.md).
				if metrics.TasksPlanned <= 0 || metrics.Tasks != metrics.TasksPlanned {
					t.Fatalf("ran %d tasks, planned %d", metrics.Tasks, metrics.TasksPlanned)
				}
				pin, ok := leafletAccounting[engine+"/"+approach]
				if !ok {
					t.Fatal("no pinned accounting for this engine/approach")
				}
				if st := res.Leaflet.Stats; st.ShuffleBytes != pin.shuffle || int64(st.Tasks) != pin.tasks || metrics.Tasks != pin.ran {
					t.Fatalf("shuffle %d B, %d tasks, %d ran; pinned %d B, %d, %d",
						st.ShuffleBytes, st.Tasks, metrics.Tasks, pin.shuffle, pin.tasks, pin.ran)
				}
				// An in-process job's engine accounting moves exactly the
				// bytes its result reports: the combine accounts its
				// shuffle once, and no collective adds to it. (The staged
				// engines' partials cross their transport instead.)
				inProcess := engine != jobs.EnginePilot && engine != jobs.EngineFleet
				if inProcess && metrics.BytesShuffled != res.Leaflet.Stats.ShuffleBytes {
					t.Fatalf("job bytes_shuffled %d, result's Stats.ShuffleBytes %d", metrics.BytesShuffled, res.Leaflet.Stats.ShuffleBytes)
				}
			})
		}
	}
}

// Leaflet caches no tiles on any engine: a job run with a block store
// leaves the store empty and accounts no block-cache lookup. Only the
// whole job is cached, by the scheduler, since no two jobs share a tile
// short of the identical membrane, cutoff and task count.
func TestLeafletCachesNoTiles(t *testing.T) {
	reg := jobs.DefaultRegistry()
	for _, engine := range jobs.Engines {
		for _, approach := range []string{"parallel-cc", "tree"} {
			t.Run(engine+"/"+approach, func(t *testing.T) {
				spec, in, err := jobs.Resolve(jobs.Spec{
					Analysis:    jobs.AnalysisLeaflet,
					Engine:      engine,
					Approach:    approach,
					Parallelism: 2,
					Tasks:       16,
					Synth:       &jobs.SynthSpec{Atoms: 2000, Seed: 31},
				})
				if err != nil {
					t.Fatal(err)
				}
				store := blockstore.New(64 << 20)
				_, metrics, err := jobs.RunCached(reg, spec, in, store)
				if err != nil {
					t.Fatal(err)
				}
				if store.Len() != 0 || metrics.BlockCacheHits+metrics.BlockCacheMisses != 0 {
					t.Fatalf("store holds %d entries after %d hits and %d misses",
						store.Len(), metrics.BlockCacheHits, metrics.BlockCacheMisses)
				}
			})
		}
	}
}
