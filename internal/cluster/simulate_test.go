package cluster

import (
	"fmt"

	"mdtask/internal/sim"
)

// Trace is a workload run phase-by-phase through the discrete-event
// simulator (internal/sim): a per-task execution timeline. Simulate
// models the same system as Estimate — a dispatch-serialized central
// scheduler feeding per-core workers — but as explicit events rather
// than closed-form scheduling, so it is the independent reference the
// Estimate tests compare against, and the trace exposes per-task
// start/finish times for the timeline tests.
type Trace struct {
	Result Result
	// Tasks holds one event per executed task, in completion order.
	Tasks []TaskEvent
}

// TaskEvent is one task's simulated execution record.
type TaskEvent struct {
	Phase      string
	Index      int
	Worker     int
	Dispatched float64 // when the dispatcher released it
	Start      float64 // when a worker began executing
	Finish     float64 // when it completed (incl. overhead)
}

// Simulate produces the event-driven trace of the workload on the
// allocation. The makespan it reports agrees with Estimate's for
// supported workloads (it applies the same cost model).
func Simulate(p Profile, a Alloc, w Workload) (*Trace, error) {
	res := Result{Framework: p.Framework, Alloc: a}
	cpn := a.CoresPerNode
	if cpn == 0 {
		cpn = a.Machine.CoresPerNode
	}
	if a.Nodes < 1 || cpn < 1 {
		return nil, fmt.Errorf("cluster: Simulate: empty allocation")
	}
	cores := a.Nodes * cpn
	slow := a.Machine.Slowdown(cpn)

	totalTasks := 0
	for _, ph := range w.Phases {
		totalTasks += len(ph.Tasks)
	}
	if p.MaxTasks > 0 && totalTasks > p.MaxTasks {
		return nil, fmt.Errorf("cluster: Simulate: %d tasks exceed %s limit %d",
			totalTasks, p.Framework, p.MaxTasks)
	}

	tr := &Trace{}
	var eng sim.Engine
	now := p.Startup
	res.Startup = p.Startup

	for _, ph := range w.Phases {
		ph := ph
		if ph.MemPerTaskBytes > 0 {
			factor := p.MemOverheadFactor
			if factor <= 0 {
				factor = 1
			}
			limit := float64(a.Machine.MemPerNode) * a.Machine.MemLimitFrac
			if float64(cpn)*float64(ph.MemPerTaskBytes)*factor > limit {
				return nil, fmt.Errorf("cluster: Simulate: phase %s exceeds node memory", ph.Name)
			}
		}
		now += p.StageOverhead
		if ph.BroadcastBytes > 0 || ph.BroadcastItems > 0 {
			bc := broadcastTime(p, a, ph.BroadcastBytes) + float64(ph.BroadcastItems)*p.BroadcastPerItem
			res.Broadcast += bc
			now += bc
		}
		if ph.IOBytes > 0 {
			t := float64(ph.IOBytes) / a.Machine.FSBandwidth
			res.IO += t
			now += t
		}
		now += float64(len(ph.Tasks)) * p.PerTaskClientOverhead

		overhead := p.TaskOverhead * slow
		if ph.ColdStart {
			overhead += p.ColdStartOverhead * slow
		}
		phaseEnd := simulatePhase(&eng, tr, ph, now, cores, slow, overhead, p.DispatchLatency)
		res.Compute += phaseEnd - now // span attribution: coarse, like a profiler
		now = phaseEnd

		if ph.ShuffleBytes > 0 {
			var t float64
			if !p.SupportsShuffle {
				t = 2 * float64(ph.ShuffleBytes) / a.Machine.FSBandwidth
			} else {
				t = shuffleTime(p, a, ph.ShuffleBytes)
			}
			res.Shuffle += t
			now += t
		}
		if ph.GatherBytes > 0 {
			t := gatherTime(p, a, ph.GatherBytes)
			res.Shuffle += t
			now += t
		}
		if ph.SerialSeconds > 0 {
			res.Serial += ph.SerialSeconds * slow
			now += ph.SerialSeconds * slow
		}
	}
	res.Makespan = now
	tr.Result = res
	return tr, nil
}

// simulatePhase schedules one phase's tasks as discrete events starting
// at virtual time start and returns the phase completion time.
func simulatePhase(eng *sim.Engine, tr *Trace, ph Phase, start float64, cores int, slow, overhead, dispatch float64) float64 {
	if len(ph.Tasks) == 0 {
		return start
	}
	if cores > len(ph.Tasks) {
		cores = len(ph.Tasks)
	}

	type worker struct {
		id   int
		free float64
	}
	// Idle workers, earliest-free first (linear scan: core counts here
	// are small; the event queue carries the heavy lifting).
	idle := make([]worker, cores)
	for i := range idle {
		idle[i] = worker{id: i, free: start}
	}
	var queue []pendingTask // dispatched tasks waiting for a worker
	end := start

	popIdle := func() (worker, bool) {
		if len(idle) == 0 {
			return worker{}, false
		}
		best := 0
		for i := range idle {
			if idle[i].free < idle[best].free {
				best = i
			}
		}
		w := idle[best]
		idle = append(idle[:best], idle[best+1:]...)
		return w, true
	}

	var runTask func(w worker, t pendingTask)
	runTask = func(w worker, t pendingTask) {
		begin := float64(eng.Now())
		if w.free > begin {
			begin = w.free
		}
		finish := begin + overhead + t.dur*slow
		eng.At(sim.Time(finish), func() {
			tr.Tasks = append(tr.Tasks, TaskEvent{
				Phase:      ph.Name,
				Index:      t.index,
				Worker:     w.id,
				Dispatched: t.dispatched,
				Start:      begin,
				Finish:     finish,
			})
			if finish > end {
				end = finish
			}
			if len(queue) > 0 {
				next := queue[0]
				queue = queue[1:]
				runTask(worker{id: w.id, free: finish}, next)
			} else {
				idle = append(idle, worker{id: w.id, free: finish})
			}
		})
	}

	// The dispatcher releases tasks serially at the dispatch interval
	// (or all at once for static scheduling when dispatch == 0).
	dispatchAt := start
	for i, dur := range ph.Tasks {
		dispatchAt += dispatch
		t := pendingTask{index: i, dur: dur, dispatched: dispatchAt}
		eng.At(sim.Time(dispatchAt), func() {
			if w, ok := popIdle(); ok {
				runTask(w, t)
			} else {
				queue = append(queue, t)
			}
		})
	}
	eng.Run()
	return end
}

// pendingTask is a dispatched task waiting for execution.
type pendingTask struct {
	index      int
	dur        float64
	dispatched float64
}
