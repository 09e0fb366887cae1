package bench

import (
	"fmt"

	"mdtask/internal/cluster"
)

// throughputFrameworks are the frameworks of the paper's §4.1 throughput
// experiments (MPI is not part of Figures 2-3).
var throughputFrameworks = []cluster.Framework{cluster.Spark, cluster.Dask, cluster.RadicalPilot}

// nullWorkload builds n zero-compute tasks (the paper's /bin/hostname
// tasks).
func nullWorkload(n int) cluster.Workload {
	return cluster.Workload{
		Name:   "null-tasks",
		Phases: []cluster.Phase{{Name: "tasks", Tasks: cluster.UniformTasks(n, 0)}},
	}
}

// rpSingleNodeTaskLimit is the task count past which the paper could not
// scale RADICAL-Pilot in the single-node throughput experiment ("we were
// not able to scale RADICAL-Pilot to 32k or more tasks", §4.1).
const rpSingleNodeTaskLimit = 32768

// Fig2 regenerates Figure 2: single-node time and throughput executing
// 16..131k zero-workload tasks on a Wrangler-like node for Spark, Dask
// and RADICAL-Pilot.
func Fig2(cal *Calibration) *Table {
	t := &Table{
		ID:     "fig2",
		Title:  "Task throughput by framework (single Wrangler node, zero-workload tasks)",
		Header: []string{"tasks"},
	}
	for _, fw := range throughputFrameworks {
		t.Header = append(t.Header, fw.String()+" time(s)", fw.String()+" tasks/s")
	}
	alloc := cluster.Alloc{Machine: cluster.Wrangler(), Nodes: 1, CoresPerNode: 24}
	for n := 16; n <= 131072; n *= 2 {
		row := []interface{}{n}
		for _, fw := range throughputFrameworks {
			prof := cluster.DefaultProfile(fw)
			prof.Startup = 0 // the cluster is up before the measurement
			if fw == cluster.RadicalPilot && n >= rpSingleNodeTaskLimit {
				row = append(row, "FAIL", "-")
				continue
			}
			res := cluster.Estimate(prof, alloc, nullWorkload(n))
			row = append(row, formatSeconds(res.Makespan), formatRate(res.Throughput(n)))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"RADICAL-Pilot did not sustain >=32k tasks on a single node in the paper; marked FAIL.",
		"expected shape: Dask fastest, Spark ~1 order slower, RADICAL-Pilot <100 tasks/s.")
	return t
}

// Fig3 regenerates Figure 3: throughput for 100k zero-workload tasks on
// 1-4 nodes of Comet and Wrangler for each framework.
func Fig3(cal *Calibration) *Table {
	const nTasks = 100_000
	t := &Table{
		ID:     "fig3",
		Title:  "Task throughput by framework (100k zero-workload tasks, multiple nodes)",
		Header: []string{"machine", "nodes"},
	}
	for _, fw := range throughputFrameworks {
		t.Header = append(t.Header, fw.String()+" tasks/s")
	}
	for _, m := range []cluster.Machine{cluster.Comet(), cluster.Wrangler()} {
		for nodes := 1; nodes <= 4; nodes++ {
			row := []interface{}{m.Name, nodes}
			for _, fw := range throughputFrameworks {
				prof := cluster.DefaultProfile(fw)
				prof.Startup = 0
				alloc := cluster.Alloc{Machine: m, Nodes: nodes, CoresPerNode: 24}
				res := cluster.Estimate(prof, alloc, nullWorkload(nTasks))
				row = append(row, formatRate(res.Throughput(nTasks)))
			}
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: Dask grows near-linearly with nodes; Spark one order lower; RADICAL-Pilot plateaus below 100 tasks/s.",
		fmt.Sprintf("dispatch-serialization caps: Dask %.0f/s, Spark %.0f/s, RP %.0f/s",
			1/cluster.DefaultProfile(cluster.Dask).DispatchLatency,
			1/cluster.DefaultProfile(cluster.Spark).DispatchLatency,
			1/cluster.DefaultProfile(cluster.RadicalPilot).DispatchLatency))
	return t
}
