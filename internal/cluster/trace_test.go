package cluster

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// The analytic Estimate and the event-driven Simulate are independent
// implementations of the same scheduling model; they must agree.

func TestSimulateMatchesEstimateUniform(t *testing.T) {
	w := Workload{Phases: []Phase{{Name: "p", Tasks: UniformTasks(200, 0.5)}}}
	for _, fw := range frameworks {
		p := DefaultProfile(fw)
		a := alloc(Comet(), 2, 16)
		est := Estimate(p, a, w)
		if est.Failed != "" {
			t.Fatalf("%v: estimate failed: %s", fw, est.Failed)
		}
		trc, err := Simulate(p, a, w)
		if err != nil {
			t.Fatalf("%v: %v", fw, err)
		}
		if math.Abs(trc.Result.Makespan-est.Makespan) > 1e-6*est.Makespan+1e-9 {
			t.Errorf("%v: simulated %.6f vs estimated %.6f", fw, trc.Result.Makespan, est.Makespan)
		}
		if len(trc.Tasks) != 200 {
			t.Errorf("%v: %d task events", fw, len(trc.Tasks))
		}
	}
}

func TestSimulateMatchesEstimateHeterogeneous(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	tasks := make([]float64, 300)
	for i := range tasks {
		tasks[i] = 0.1 + r.Float64()
	}
	w := Workload{Phases: []Phase{{Name: "p", Tasks: tasks}}}
	for _, fw := range []Framework{Spark, Dask} { // dispatch-scheduled engines
		p := DefaultProfile(fw)
		a := alloc(Comet(), 1, 24)
		est := Estimate(p, a, w)
		trc, err := Simulate(p, a, w)
		if err != nil {
			t.Fatalf("%v: %v", fw, err)
		}
		// Both are greedy earliest-free schedules; they must agree
		// closely even for heterogeneous tasks.
		if math.Abs(trc.Result.Makespan-est.Makespan) > 0.05*est.Makespan {
			t.Errorf("%v: simulated %.4f vs estimated %.4f", fw, trc.Result.Makespan, est.Makespan)
		}
	}
}

func TestSimulateMultiPhase(t *testing.T) {
	w := Workload{Phases: []Phase{
		{Name: "a", Tasks: UniformTasks(50, 0.2), BroadcastBytes: 1 << 20},
		{Name: "b", Tasks: UniformTasks(50, 0.1), ShuffleBytes: 1 << 20, SerialSeconds: 0.5},
	}}
	p := DefaultProfile(Spark)
	a := alloc(Wrangler(), 2, 24)
	est := Estimate(p, a, w)
	trc, err := Simulate(p, a, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(trc.Result.Makespan-est.Makespan) > 1e-6*est.Makespan {
		t.Errorf("multi-phase: %.6f vs %.6f", trc.Result.Makespan, est.Makespan)
	}
	if len(trc.Tasks) != 100 {
		t.Errorf("task events = %d", len(trc.Tasks))
	}
	// Phase b tasks must all start after phase a tasks finish.
	var aMax, bMin float64 = 0, math.Inf(1)
	for _, ev := range trc.Tasks {
		if ev.Phase == "a" && ev.Finish > aMax {
			aMax = ev.Finish
		}
		if ev.Phase == "b" && ev.Start < bMin {
			bMin = ev.Start
		}
	}
	if bMin < aMax {
		t.Errorf("phase barrier violated: b starts %.3f before a ends %.3f", bMin, aMax)
	}
}

func TestSimulateTaskEventInvariants(t *testing.T) {
	w := Workload{Phases: []Phase{{Name: "p", Tasks: UniformTasks(64, 0.3)}}}
	p := DefaultProfile(Dask)
	trc, err := Simulate(p, alloc(Comet(), 1, 8), w)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, ev := range trc.Tasks {
		if ev.Start < ev.Dispatched {
			t.Errorf("task %d started %.4f before dispatch %.4f", ev.Index, ev.Start, ev.Dispatched)
		}
		if ev.Finish <= ev.Start {
			t.Errorf("task %d finish %.4f <= start %.4f", ev.Index, ev.Finish, ev.Start)
		}
		if ev.Worker < 0 || ev.Worker >= 8 {
			t.Errorf("task %d on worker %d", ev.Index, ev.Worker)
		}
		if seen[ev.Index] {
			t.Errorf("task %d executed twice", ev.Index)
		}
		seen[ev.Index] = true
	}
	if len(seen) != 64 {
		t.Errorf("executed %d distinct tasks", len(seen))
	}
	// No worker overlap: tasks on the same worker must not overlap.
	byWorker := make(map[int][]TaskEvent)
	for _, ev := range trc.Tasks {
		byWorker[ev.Worker] = append(byWorker[ev.Worker], ev)
	}
	for wkr, evs := range byWorker {
		for i := 0; i < len(evs); i++ {
			for j := i + 1; j < len(evs); j++ {
				a, b := evs[i], evs[j]
				if a.Start < b.Finish && b.Start < a.Finish {
					t.Errorf("worker %d: tasks %d and %d overlap", wkr, a.Index, b.Index)
				}
			}
		}
	}
}

func TestSimulateUtilizationAndOrder(t *testing.T) {
	w := Workload{Phases: []Phase{{Name: "p", Tasks: UniformTasks(32, 0.5)}}}
	trc, err := Simulate(DefaultProfile(MPI), alloc(Comet(), 1, 8), w)
	if err != nil {
		t.Fatal(err)
	}
	util := trc.WorkerUtilization()
	if len(util) != 8 {
		t.Fatalf("utilization for %d workers", len(util))
	}
	for wkr, u := range util {
		if u < 0.5 || u > 1.001 {
			t.Errorf("worker %d utilization %.2f", wkr, u)
		}
	}
	order := trc.CompletionOrder()
	if len(order) != 32 {
		t.Errorf("completion order has %d entries", len(order))
	}
}

func TestSimulateFailures(t *testing.T) {
	if _, err := Simulate(DefaultProfile(Spark), alloc(Comet(), 0, 0), Workload{}); err == nil {
		t.Error("empty allocation accepted")
	}
	p := DefaultProfile(Spark)
	p.MaxTasks = 10
	w := Workload{Phases: []Phase{{Name: "p", Tasks: UniformTasks(11, 0)}}}
	if _, err := Simulate(p, alloc(Comet(), 1, 4), w); err == nil {
		t.Error("task limit not enforced")
	}
	w2 := Workload{Phases: []Phase{{Name: "p", Tasks: UniformTasks(4, 0), MemPerTaskBytes: 1 << 62}}}
	if _, err := Simulate(DefaultProfile(Spark), alloc(Comet(), 1, 4), w2); err == nil {
		t.Error("memory limit not enforced")
	}
}

// WorkerUtilization summarizes a trace: per-worker busy fraction over
// the phase span.
func (t *Trace) WorkerUtilization() map[int]float64 {
	if len(t.Tasks) == 0 {
		return nil
	}
	busy := make(map[int]float64)
	lo, hi := t.Tasks[0].Start, t.Tasks[0].Finish
	for _, ev := range t.Tasks {
		busy[ev.Worker] += ev.Finish - ev.Start
		if ev.Start < lo {
			lo = ev.Start
		}
		if ev.Finish > hi {
			hi = ev.Finish
		}
	}
	span := hi - lo
	if span <= 0 {
		return busy
	}
	for w := range busy {
		busy[w] /= span
	}
	return busy
}

// CompletionOrder returns task indices in finish order (for straggler
// analysis).
func (t *Trace) CompletionOrder() []int {
	evs := make([]TaskEvent, len(t.Tasks))
	copy(evs, t.Tasks)
	sort.Slice(evs, func(i, j int) bool { return evs[i].Finish < evs[j].Finish })
	out := make([]int, len(evs))
	for i, ev := range evs {
		out[i] = ev.Index
	}
	return out
}
