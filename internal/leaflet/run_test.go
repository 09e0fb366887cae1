package leaflet

import (
	"testing"
	"time"

	"mdtask/internal/engine"
	"mdtask/internal/pilot"
	"mdtask/internal/rdd"
	"mdtask/internal/synth"
)

// The cross-engine contract — every approach on every engine partitions
// the atoms exactly as Serial does, with equal edge counts and planned
// task counts — is locked down by TestLeafletEngineConformance in
// internal/engine/conformtest, which runs through the jobs registry.
// The tests below keep Run's own invariants: the data-movement profile
// of each approach, the declared working sets, and the pilot's staged
// path.

// recorder is a serial executor that remembers the tasks it was handed.
type recorder struct {
	*engine.Serial
	tasks []engine.Task
}

func (r *recorder) Map(tasks []engine.Task) ([]any, error) {
	r.tasks = append(r.tasks, tasks...)
	return r.Serial.Map(tasks)
}

func (r *recorder) Reduce(tasks []engine.Task, merge func(a, b any) any) (any, int64, error) {
	r.tasks = append(r.tasks, tasks...)
	return r.Serial.Reduce(tasks, merge)
}

// Every approach on the reference executor must produce exactly the
// serial reference partition, one task per planned tile.
func TestRunMatchesSerialEveryApproach(t *testing.T) {
	sys := membrane(3000)
	want := Serial(sys.Coords, synth.BilayerCutoff)
	if len(want.Components) != 2 {
		t.Fatalf("reference found %d components", len(want.Components))
	}
	const nTasks = 24
	for _, approach := range Approaches {
		t.Run(approach.String(), func(t *testing.T) {
			ex := engine.NewSerial(nil)
			got, err := Run(ex, approach, sys.Coords, synth.BilayerCutoff, nTasks)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(got, want) {
				t.Fatal("result differs from serial")
			}
			if got.Stats.Edges != want.Stats.Edges {
				t.Errorf("edges = %d, want %d", got.Stats.Edges, want.Stats.Edges)
			}
			plan := PlanTasks(approach, sys.Coords, synth.BilayerCutoff, nTasks)
			if got.Stats.Tasks != plan || ex.Metrics().Snapshot().Tasks != int64(plan) {
				t.Errorf("stats tasks = %d, executor tasks = %d, plan = %d",
					got.Stats.Tasks, ex.Metrics().Snapshot().Tasks, plan)
			}
		})
	}
}

// The cdist-based approaches declare each task's rows × cols distance
// matrix as its working set — what a Dask memory limit acts on
// (§4.3.3) — while the tree approach, which never builds that matrix,
// declares none (§4.3.4).
func TestRunDeclaresCdistWorkingSet(t *testing.T) {
	sys := membrane(600)
	for _, tc := range []struct {
		approach Approach
		declares bool
	}{
		{Broadcast1D, false}, {TaskAPI2D, true}, {ParallelCC, true}, {TreeSearch, false},
	} {
		rec := &recorder{Serial: engine.NewSerial(nil)}
		if _, err := Run(rec, tc.approach, sys.Coords, synth.BilayerCutoff, 6); err != nil {
			t.Fatal(err)
		}
		blocks := liveBlocks2D(sys.Coords, synth.BilayerCutoff, 6)
		for i, task := range rec.tasks {
			want := int64(0)
			if tc.declares {
				want = blockMemBytes(blocks[i])
			}
			if task.Mem != want {
				t.Errorf("%v task %d declares %d bytes, want %d", tc.approach, i, task.Mem, want)
			}
		}
	}
}

func TestApproach3ShufflesLessThanApproach2(t *testing.T) {
	sys := membrane(4096)
	run := func(a Approach) *Result {
		res, err := Run(rdd.NewExecutor(rdd.NewContext(4), nil), a, sys.Coords, synth.BilayerCutoff, 32)
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
	res, err := Run(ex, Broadcast1D, sys.Coords, synth.BilayerCutoff, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := CoordBytes(len(sys.Coords))
	if res.Stats.BroadcastBytes != want || ex.Metrics().Snapshot().BytesBroadcast != want {
		t.Errorf("broadcast: stats %d, executor %d, want %d",
			res.Stats.BroadcastBytes, ex.Metrics().Snapshot().BytesBroadcast, want)
	}
	res2, err := Run(engine.NewSerial(nil), TaskAPI2D, sys.Coords, synth.BilayerCutoff, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.BroadcastBytes != 0 {
		t.Errorf("approach 2 broadcast = %d, want 0", res2.Stats.BroadcastBytes)
	}
}

func TestPilotDriverMatchesSerial(t *testing.T) {
	sys := membrane(1200)
	want := Serial(sys.Coords, synth.BilayerCutoff)
	cfg := pilot.Config{
		DBLatency:          50 * time.Microsecond,
		AgentPollInterval:  500 * time.Microsecond,
		ClientPollInterval: 500 * time.Microsecond,
	}
	p, err := pilot.NewPilot(4, t.TempDir(), pilot.NewDB(cfg.DBLatency), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	got, err := RunPilot(p, sys.Coords, synth.BilayerCutoff, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, want) {
		t.Fatal("pilot result differs from serial")
	}
	if got.Stats.Edges != want.Stats.Edges {
		t.Errorf("edges = %d, want %d", got.Stats.Edges, want.Stats.Edges)
	}
}

func TestRunUnknownApproach(t *testing.T) {
	sys := membrane(100)
	if _, err := Run(engine.NewSerial(nil), Approach(9), sys.Coords, 1, 4); err == nil {
		t.Error("unknown approach accepted")
	}
}

func TestSingleTaskDegenerate(t *testing.T) {
	sys := membrane(600)
	want := Serial(sys.Coords, synth.BilayerCutoff)
	got, err := Run(engine.NewSerial(nil), TaskAPI2D, sys.Coords, synth.BilayerCutoff, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, want) {
		t.Fatal("single-task run differs")
	}
	if got.Stats.Tasks != 1 {
		t.Errorf("tasks = %d", got.Stats.Tasks)
	}
}
