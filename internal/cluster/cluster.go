// Package cluster models the HPC machines and framework runtimes of the
// paper's evaluation so that every figure's node/core sweep can be
// regenerated deterministically. Real kernels measured by the engines
// supply per-task compute durations; this package supplies the machine
// (Comet-like and Wrangler-like presets) and the per-framework
// coordination costs (dispatch serialization, worker-side task overhead,
// startup, broadcast/shuffle models), and schedules task phases onto
// cores with a discrete dispatch model to produce virtual makespans.
//
// The constants in the framework profiles are calibration parameters,
// not measurements of the real systems; they are chosen so the *shape*
// of the paper's results holds (Dask > Spark >> RADICAL-Pilot task
// throughput with an RP plateau below 100 tasks/s; MPI broadcast cheap
// but growing with ranks while Spark's stays flat; Dask broadcast and
// shuffle weaker than Spark's). TestExperimentsGolden (internal/bench)
// pins the figures they produce.
package cluster

import (
	"fmt"
	"math"
)

// Machine describes a compute resource.
type Machine struct {
	Name          string
	Nodes         int     // nodes available
	CoresPerNode  int     // schedulable cores (logical if HT enabled)
	PhysPerNode   int     // physical cores per node
	HTSpeedup     float64 // total throughput gain from filling logical cores (e.g. 1.3)
	CoreSpeed     float64 // relative single-core speed (1.0 = reference)
	NetLatency    float64 // seconds per message
	NetBandwidth  float64 // bytes/second per link
	FSBandwidth   float64 // shared filesystem bytes/second (pilot staging)
	MemPerNode    int64   // bytes of RAM per node
	MemLimitFrac  float64 // fraction of MemPerNode a worker may use before failing
	HyperThreaded bool
}

// Comet returns an SDSC-Comet-like machine: 24 Haswell cores/node,
// 128 GB/node, no hyper-threading oversubscription.
func Comet() Machine {
	return Machine{
		Name:         "comet",
		Nodes:        6400,
		CoresPerNode: 24,
		PhysPerNode:  24,
		HTSpeedup:    1,
		CoreSpeed:    1.0,
		NetLatency:   20e-6,
		NetBandwidth: 6e9,
		FSBandwidth:  3e9,
		MemPerNode:   128 << 30,
		MemLimitFrac: 0.95,
	}
}

// Wrangler returns a TACC-Wrangler-like machine: 24 physical Haswell
// cores with hyper-threading enabled (48 logical; the paper schedules 32
// per node), 128 GB/node. Packing more tasks than physical cores slows
// each task, which is why the paper observes smaller speedups on
// Wrangler for the same total core count (§4.2).
func Wrangler() Machine {
	return Machine{
		Name:          "wrangler",
		Nodes:         120,
		CoresPerNode:  48,
		PhysPerNode:   24,
		HTSpeedup:     1.15,
		CoreSpeed:     0.97,
		NetLatency:    25e-6,
		NetBandwidth:  5e9,
		FSBandwidth:   3e9,
		MemPerNode:    128 << 30,
		MemLimitFrac:  0.95,
		HyperThreaded: true,
	}
}

// Slowdown returns the per-task compute dilation when running
// coresUsedPerNode concurrent tasks on one node. Using at most the
// physical core count costs nothing; oversubscribing into hyper-threads
// dilates tasks so total node throughput caps at PhysPerNode*HTSpeedup.
func (m Machine) Slowdown(coresUsedPerNode int) float64 {
	if coresUsedPerNode <= m.PhysPerNode || m.PhysPerNode == 0 {
		return 1 / m.CoreSpeed
	}
	ht := m.HTSpeedup
	if ht < 1 {
		ht = 1
	}
	return float64(coresUsedPerNode) / (float64(m.PhysPerNode) * ht) / m.CoreSpeed
}

// Framework identifies a task-parallel runtime model.
type Framework int

const (
	MPI Framework = iota
	Spark
	Dask
	RadicalPilot
)

// String returns the framework's display name.
func (f Framework) String() string {
	switch f {
	case MPI:
		return "MPI4py"
	case Spark:
		return "Spark"
	case Dask:
		return "Dask"
	case RadicalPilot:
		return "RADICAL-Pilot"
	default:
		return fmt.Sprintf("Framework(%d)", int(f))
	}
}

// Profile holds the coordination-cost parameters of a framework.
type Profile struct {
	Framework Framework
	// Startup is the fixed cost of bringing the runtime up on the
	// allocation (JVM start, pilot agent bootstrap, mpirun, ...).
	Startup float64
	// DispatchLatency serializes task launches at a central scheduler:
	// the client/scheduler spends this long per task, capping throughput
	// at 1/DispatchLatency regardless of worker count.
	DispatchLatency float64
	// TaskOverhead is the per-task worker-side cost (deserialization,
	// fork/exec, interpreter startup), paid in parallel across cores.
	TaskOverhead float64
	// StageOverhead is the per-stage/barrier scheduling cost.
	StageOverhead float64
	// BroadcastFactor multiplies the ideal bytes/bandwidth transfer time
	// of a broadcast; BroadcastPerRank adds a per-destination-rank cost.
	BroadcastFactor  float64
	BroadcastPerRank float64
	// ShuffleFactor multiplies the ideal cross-node shuffle transfer
	// time (Spark ~1 with its sort-based shuffle; Dask higher).
	ShuffleFactor float64
	// SupportsShuffle is false for runtimes with no data plane (RP
	// exchanges data through the shared filesystem instead).
	SupportsShuffle bool
	// MaxTasks is the largest task count the runtime sustains
	// (RADICAL-Pilot could not run >=32k tasks in the paper); 0 = no limit.
	MaxTasks int
	// PerTaskClientOverhead is extra client-side serial work per task
	// before dispatch (e.g. RP unit description creation + DB insert).
	PerTaskClientOverhead float64
	// MemOverheadFactor inflates each task's declared working set to
	// account for the runtime's object overhead (Python object graphs
	// and result accumulation make Dask's footprint several times the
	// raw array size; JVM+Python for Spark somewhat less; MPI ~ none).
	MemOverheadFactor float64
	// ColdStartOverhead is the extra per-task cost when a phase's tasks
	// cold-start an application process (RP fork/execs a fresh Python
	// interpreter importing the analysis stack per unit; Spark/Dask
	// reuse warm workers).
	ColdStartOverhead float64
	// BroadcastPerItem is a per-element serialization cost of broadcast
	// payloads (Dask's scatter pickles the dataset as a per-element
	// list, §4.3.1).
	BroadcastPerItem float64
}

// DefaultProfile returns the calibrated cost model for a framework.
func DefaultProfile(f Framework) Profile {
	switch f {
	case MPI:
		return Profile{
			Framework:       f,
			Startup:         1.0, // mpirun + interpreter start
			DispatchLatency: 0,   // static SPMD partitioning: no dispatcher
			TaskOverhead:    0.2e-3,
			StageOverhead:   1e-3,
			BroadcastFactor: 1.0,
			// Binomial-tree bcast grows with ranks.
			BroadcastPerRank:  120e-6,
			ShuffleFactor:     1.0, // gather over fast interconnect
			SupportsShuffle:   true,
			MemOverheadFactor: 1.0,
		}
	case Spark:
		return Profile{
			Framework:             f,
			Startup:               6.0, // JVM + executors + PySpark gateways
			DispatchLatency:       0.45e-3,
			TaskOverhead:          95e-3, // Python<->JVM serialization dominates
			StageOverhead:         0.35,
			BroadcastFactor:       1.8, // torrent broadcast: ~flat in node count
			BroadcastPerRank:      0,
			ShuffleFactor:         1.4, // sort-based shuffle with disk spill
			SupportsShuffle:       true,
			PerTaskClientOverhead: 0.05e-3,
			MemOverheadFactor:     1.5,
			BroadcastPerItem:      5e-6, // per-element pickling into the JVM
		}
	case Dask:
		return Profile{
			Framework:             f,
			Startup:               2.5, // dask-scheduler + workers via dask-ssh
			DispatchLatency:       0.04e-3,
			TaskOverhead:          9.5e-3, // pure-Python task spin-up
			StageOverhead:         8e-3,   // no stage barrier: near-free
			BroadcastFactor:       7.0,    // scatter broadcasts element lists
			BroadcastPerRank:      0,
			ShuffleFactor:         3.2, // weaker communication layer than Spark
			SupportsShuffle:       true,
			PerTaskClientOverhead: 0.01e-3,
			MemOverheadFactor:     3.0,
			BroadcastPerItem:      50e-6, // per-element list materialization
		}
	case RadicalPilot:
		return Profile{
			Framework:             f,
			Startup:               25.0, // pilot bootstrap on the resource
			DispatchLatency:       12e-3,
			TaskOverhead:          180e-3, // agent fork/exec per unit
			StageOverhead:         4.0,    // client/agent synchronization
			BroadcastFactor:       0,      // no data plane
			ShuffleFactor:         0,
			SupportsShuffle:       false,
			PerTaskClientOverhead: 1.2e-3, // CU description + MongoDB insert
			MemOverheadFactor:     1.0,
			// Each unit cold-starts a Python interpreter and imports the
			// analysis stack.
			ColdStartOverhead: 12.0,
		}
	default:
		panic(fmt.Sprintf("cluster: unknown framework %d", int(f)))
	}
}

// Phase is one barrier-delimited step of a workload: a bag of tasks with
// optional data movement around it.
type Phase struct {
	Name string
	// Tasks holds per-task compute durations in reference-core seconds.
	Tasks []float64
	// BroadcastBytes is data broadcast from the client to every node
	// before the phase runs (Leaflet Finder Approach 1).
	BroadcastBytes int64
	// ShuffleBytes is data exchanged across the cluster after the tasks
	// complete (edge lists or partial components, Table 2).
	ShuffleBytes int64
	// GatherBytes is data collected back to the client/rank 0.
	GatherBytes int64
	// SerialSeconds is client-side serial work in the phase (e.g. the
	// final connected-components computation on the master).
	SerialSeconds float64
	// MemPerTaskBytes is the peak working-set of one task; the estimator
	// fails the phase when concurrent tasks exceed the node memory limit
	// (reproducing the cdist out-of-memory walls of §4.3).
	MemPerTaskBytes int64
	// BroadcastItems is the element count of the broadcast payload, for
	// runtimes with per-element serialization costs.
	BroadcastItems int64
	// IOBytes is the total volume read from the shared filesystem by the
	// phase's tasks; it is paid at the machine's filesystem bandwidth
	// regardless of core count (the re-read amplification that limits
	// PSA speedups, §4.2).
	IOBytes int64
	// ColdStart marks tasks that fork fresh application processes
	// (import cost per task for interpreter-based runtimes).
	ColdStart bool
}

// Workload is a sequence of phases executed in order.
type Workload struct {
	Name   string
	Phases []Phase
}

// Alloc describes the slice of a machine given to a run.
type Alloc struct {
	Machine Machine
	Nodes   int
	// CoresPerNode is how many cores per node the run uses; 0 means all.
	CoresPerNode int
}

// Cores returns the total core count of the allocation.
func (a Alloc) Cores() int {
	cpn := a.CoresPerNode
	if cpn == 0 {
		cpn = a.Machine.CoresPerNode
	}
	return a.Nodes * cpn
}

// Result is the outcome of estimating a workload on an allocation.
type Result struct {
	Framework Framework
	Alloc     Alloc
	// Makespan is total virtual runtime in seconds including startup.
	Makespan float64
	// Breakdown per cost category, all in seconds.
	Startup, Dispatch, Compute, Overhead, Broadcast, Shuffle, Serial, IO float64
	// Failed is non-empty when the run could not complete (task-count or
	// memory limits), mirroring the paper's "did not scale" data points.
	Failed string
}

// Throughput returns tasks/second over the whole run; 0 when failed.
func (r Result) Throughput(tasks int) float64 {
	if r.Failed != "" || r.Makespan <= 0 {
		return 0
	}
	return float64(tasks) / r.Makespan
}

// Estimate schedules the workload on the allocation under the given
// framework profile and returns the virtual makespan with a cost
// breakdown. The scheduling model is a dispatch-serialized greedy list
// schedule: a central dispatcher emits tasks at 1/DispatchLatency while
// workers (cores) execute them with per-task overhead; MPI instead uses
// static block partitioning with no dispatcher.
func Estimate(p Profile, a Alloc, w Workload) Result {
	res := Result{Framework: p.Framework, Alloc: a}
	cpn := a.CoresPerNode
	if cpn == 0 {
		cpn = a.Machine.CoresPerNode
	}
	if a.Nodes < 1 || cpn < 1 {
		res.Failed = "empty allocation"
		return res
	}
	cores := a.Nodes * cpn
	slow := a.Machine.Slowdown(cpn)

	res.Startup = p.Startup
	now := p.Startup

	totalTasks := 0
	for _, ph := range w.Phases {
		totalTasks += len(ph.Tasks)
	}
	if p.MaxTasks > 0 && totalTasks > p.MaxTasks {
		res.Failed = fmt.Sprintf("%s cannot sustain %d tasks (limit %d)", p.Framework, totalTasks, p.MaxTasks)
		return res
	}

	for _, ph := range w.Phases {
		// Memory check: workers per node each hold one task working set,
		// inflated by the runtime's object overhead.
		if ph.MemPerTaskBytes > 0 {
			factor := p.MemOverheadFactor
			if factor <= 0 {
				factor = 1
			}
			// Compare in floating point: task working sets can be large
			// enough that integer arithmetic would overflow.
			limit := float64(a.Machine.MemPerNode) * a.Machine.MemLimitFrac
			need := float64(cpn) * float64(ph.MemPerTaskBytes) * factor
			if need > limit {
				res.Failed = fmt.Sprintf("phase %s: %d tasks/node x %d B (x%.1f overhead) exceeds %.0f B node memory",
					ph.Name, cpn, ph.MemPerTaskBytes, factor, limit)
				return res
			}
		}

		now += p.StageOverhead
		res.Overhead += p.StageOverhead

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

		clientSerial := float64(len(ph.Tasks)) * p.PerTaskClientOverhead
		res.Dispatch += clientSerial
		now += clientSerial

		// Worker-side overheads are CPU work, so they dilate with the
		// machine's core speed and oversubscription like task compute.
		overhead := p.TaskOverhead * slow
		if ph.ColdStart {
			overhead += p.ColdStartOverhead * slow
		}
		var phaseSpan float64
		if p.DispatchLatency == 0 {
			phaseSpan = staticSchedule(ph.Tasks, cores, slow, overhead)
		} else {
			phaseSpan = dispatchSchedule(ph.Tasks, cores, slow, overhead, p.DispatchLatency)
		}
		// Attribute the span between compute and coordination for the
		// breakdown (informational; the makespan uses phaseSpan itself).
		var compute float64
		for _, d := range ph.Tasks {
			compute += d * slow
		}
		ideal := compute / float64(cores)
		res.Compute += ideal
		res.Dispatch += phaseSpan - ideal
		now += phaseSpan

		if ph.ShuffleBytes > 0 {
			if !p.SupportsShuffle {
				// RP moves intermediate data over the shared filesystem:
				// write + read at filesystem bandwidth.
				t := 2 * float64(ph.ShuffleBytes) / a.Machine.FSBandwidth
				res.Shuffle += t
				now += t
			} else {
				t := shuffleTime(p, a, ph.ShuffleBytes)
				res.Shuffle += t
				now += t
			}
		}
		if ph.GatherBytes > 0 {
			t := gatherTime(p, a, ph.GatherBytes)
			res.Shuffle += t
			now += t
		}
		if ph.SerialSeconds > 0 {
			s := ph.SerialSeconds * slow
			res.Serial += s
			now += s
		}
	}
	res.Makespan = now
	return res
}

// dispatchSchedule computes the makespan of tasks on `cores` workers fed
// by a serial dispatcher.
func dispatchSchedule(tasks []float64, cores int, slow, overhead, dispatch float64) float64 {
	if len(tasks) == 0 {
		return 0
	}
	if cores > len(tasks) {
		cores = len(tasks)
	}
	free := make([]float64, cores) // min-heap of worker free times
	var dispatcher, makespan float64
	for _, d := range tasks {
		dispatcher += dispatch
		start := free[0]
		if dispatcher > start {
			start = dispatcher
		}
		end := start + overhead + d*slow
		if end > makespan {
			makespan = end
		}
		free[0] = end
		siftDown(free)
	}
	return makespan
}

// staticSchedule computes the makespan under static block partitioning
// (the MPI model): task i goes to worker i mod cores.
func staticSchedule(tasks []float64, cores int, slow, overhead float64) float64 {
	if len(tasks) == 0 {
		return 0
	}
	if cores > len(tasks) {
		cores = len(tasks)
	}
	load := make([]float64, cores)
	for i, d := range tasks {
		load[i%cores] += overhead + d*slow
	}
	var makespan float64
	for _, l := range load {
		if l > makespan {
			makespan = l
		}
	}
	return makespan
}

// siftDown restores the min-heap property after replacing the root.
func siftDown(h []float64) {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h[l] < h[smallest] {
			smallest = l
		}
		if r < len(h) && h[r] < h[smallest] {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// broadcastTime models distributing bytes to every node of the
// allocation before a phase.
func broadcastTime(p Profile, a Alloc, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	base := float64(bytes) / a.Machine.NetBandwidth
	switch p.Framework {
	case MPI:
		// Binomial tree: log2(P) transfer rounds plus a per-rank setup
		// term that makes MPI broadcast grow with process count, as the
		// paper observes.
		ranks := float64(a.Cores())
		rounds := math.Ceil(math.Log2(ranks + 1))
		return base*rounds*p.BroadcastFactor/8 + ranks*p.BroadcastPerRank
	default:
		// Spark/Dask: roughly flat in node count; factor captures how
		// efficient the implementation is (Dask's element-list scatter
		// is several times slower than Spark's torrent broadcast).
		return a.Machine.NetLatency*float64(a.Nodes) + base*p.BroadcastFactor
	}
}

// shuffleTime models the cross-node exchange of bytes after a phase.
func shuffleTime(p Profile, a Alloc, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	// Each node sends/receives its share in parallel over its link.
	perNode := float64(bytes) / float64(a.Nodes)
	return a.Machine.NetLatency*float64(a.Nodes) + perNode/a.Machine.NetBandwidth*p.ShuffleFactor
}

// gatherTime models collecting bytes to the client / rank 0 (single
// sink link is the bottleneck).
func gatherTime(p Profile, a Alloc, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	f := p.ShuffleFactor
	if f == 0 {
		// No data plane: filesystem round trip (RP).
		return 2 * float64(bytes) / a.Machine.FSBandwidth
	}
	return a.Machine.NetLatency + float64(bytes)/a.Machine.NetBandwidth*f
}

// UniformTasks returns n tasks of identical duration d, a convenience
// for workload construction.
func UniformTasks(n int, d float64) []float64 {
	t := make([]float64, n)
	for i := range t {
		t[i] = d
	}
	return t
}
