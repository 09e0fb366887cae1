package leaflet

import (
	"slices"
	"testing"

	"mdtask/internal/engine"
	"mdtask/internal/rdd"
	"mdtask/internal/synth"
)

// The cross-engine contract — every approach on every engine partitions
// the atoms exactly as Serial does, with equal edge counts and as many
// tasks run as the executor planned — is locked down by TestLeafletEngineConformance in
// internal/engine/conformtest, which runs through the jobs registry.
// The tests below keep Run's own invariants: the data-movement profile
// of each approach (staged_test.go covers the pilot's staged path).

// Every approach on the reference executor must produce exactly the
// serial reference partition, one task per planned tile.
func TestRunMatchesSerialEveryApproach(t *testing.T) {
	sys := membrane(3000)
	want := Serial(sys.Coords, synth.BilayerCutoff)
	if len(want.Components) != 2 {
		t.Fatalf("reference found %d components", len(want.Components))
	}
	const nTasks, workers = 24, 2
	for _, approach := range Approaches {
		t.Run(approach.String(), func(t *testing.T) {
			ex := engine.NewSerial(nil)
			got, err := Run(ex, approach, sys.Coords, synth.BilayerCutoff, nTasks, workers, engine.Env{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Labels, want.Labels) {
				t.Fatal("result differs from serial")
			}
			if got.Stats.Edges != want.Stats.Edges {
				t.Errorf("edges = %d, want %d", got.Stats.Edges, want.Stats.Edges)
			}
			plan := len(tilesFor(sys.Coords, synth.BilayerCutoff, nTasks, workers, approach == TreeSearch))
			if approach == Broadcast1D {
				plan = len(chunks1D(len(sys.Coords), nTasks))
			}
			snap := ex.Metrics().Snapshot()
			if got.Stats.Tasks != plan || snap.Tasks != int64(plan) || snap.TasksPlanned != int64(plan) {
				t.Errorf("stats tasks = %d, executor tasks = %d planned %d, plan = %d",
					got.Stats.Tasks, snap.Tasks, snap.TasksPlanned, plan)
			}
		})
	}
}

func TestApproach3ShufflesLessThanApproach2(t *testing.T) {
	sys := membrane(4096)
	run := func(a Approach) *Result {
		res, err := Run(rdd.NewExecutor(rdd.NewContext(4), nil), a, sys.Coords, synth.BilayerCutoff, 32, 4, engine.Env{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a2, a3 := run(TaskAPI2D), run(ParallelCC)
	if a3.Stats.ShuffleBytes <= 0 || a3.Stats.ShuffleBytes*2 > a2.Stats.ShuffleBytes {
		t.Errorf("Approach 3 shuffle (%d B) not <50%% of Approach 2 (%d B)",
			a3.Stats.ShuffleBytes, a2.Stats.ShuffleBytes)
	}
}

func TestApproach1BroadcastAccounted(t *testing.T) {
	sys := membrane(1500)
	ex := engine.NewSerial(nil)
	res, err := Run(ex, Broadcast1D, sys.Coords, synth.BilayerCutoff, 16, 1, engine.Env{})
	if err != nil {
		t.Fatal(err)
	}
	want := CoordBytes(len(sys.Coords))
	if res.Stats.BroadcastBytes != want || ex.Metrics().Snapshot().BytesBroadcast != want {
		t.Errorf("broadcast: stats %d, executor %d, want %d",
			res.Stats.BroadcastBytes, ex.Metrics().Snapshot().BytesBroadcast, want)
	}
	res2, err := Run(engine.NewSerial(nil), TaskAPI2D, sys.Coords, synth.BilayerCutoff, 16, 1, engine.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.BroadcastBytes != 0 {
		t.Errorf("approach 2 broadcast = %d, want 0", res2.Stats.BroadcastBytes)
	}
}

func TestRunUnknownApproach(t *testing.T) {
	sys := membrane(100)
	if _, err := Run(engine.NewSerial(nil), Approach(9), sys.Coords, 1, 4, 1, engine.Env{}); err == nil {
		t.Error("unknown approach accepted")
	}
}

func TestSingleTaskDegenerate(t *testing.T) {
	sys := membrane(600)
	want := Serial(sys.Coords, synth.BilayerCutoff)
	got, err := Run(engine.NewSerial(nil), TaskAPI2D, sys.Coords, synth.BilayerCutoff, 1, 1, engine.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Labels, want.Labels) {
		t.Fatal("single-task run differs")
	}
	if got.Stats.Tasks != 1 {
		t.Errorf("tasks = %d", got.Stats.Tasks)
	}
}
