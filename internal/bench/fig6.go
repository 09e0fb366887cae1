package bench

import (
	"fmt"

	"mdtask/internal/cluster"
	"mdtask/internal/cpptraj"
	"mdtask/internal/synth"
)

// haswell20 models the 20-core Haswell nodes of the paper's CPPTraj
// experiment (§4.2, Fig 6).
func haswell20() cluster.Machine {
	m := cluster.Comet()
	m.Name = "haswell20"
	m.CoresPerNode = 20
	m.PhysPerNode = 20
	return m
}

// Fig6 regenerates Figure 6: CPPTraj-style 2D-RMSD over 128 small
// trajectories, 1..240 cores, comparing the naive ("GNU") and blocked
// ("Intel -O3") kernels. Per-pair kernel costs are real measurements of
// this repository's kernels (see Calibration.CPPTrajPair).
func Fig6(cal *Calibration) *Table {
	const nTraj = 128
	kernels := []cpptraj.Kernel{cpptraj.Naive, cpptraj.Blocked}
	t := &Table{
		ID:     "fig6",
		Title:  "CPPTraj 2D-RMSD, 128 small trajectories: runtime and speedup vs cores",
		Header: []string{"cores"},
	}
	for _, k := range kernels {
		t.Header = append(t.Header, k.String()+" time(s)", k.String()+" speedup")
	}
	pairs := nTraj * (nTraj + 1) / 2
	m := haswell20()
	base := make(map[cpptraj.Kernel]float64)
	coresList := []int{1, 20, 40, 80, 120, 160, 200, 240}
	for _, cores := range coresList {
		nodes := (cores + m.CoresPerNode - 1) / m.CoresPerNode
		row := []interface{}{cores}
		for _, k := range kernels {
			prof := cluster.DefaultProfile(cluster.MPI)
			// mpirun process spawn grows with rank count.
			prof.Startup = 1 + 0.02*float64(cores)
			w := cluster.Workload{
				Name: "cpptraj-2drmsd",
				Phases: []cluster.Phase{{
					Name:    "pairs",
					Tasks:   cluster.UniformTasks(pairs, cal.CPPTrajPair[k.String()]),
					IOBytes: int64(nTraj) * TrajBytes(synth.Small),
				}},
			}
			alloc := cluster.Alloc{Machine: m, Nodes: nodes, CoresPerNode: min(cores, m.CoresPerNode)}
			res := cluster.Estimate(prof, alloc, w)
			if cores == coresList[0] {
				base[k] = res.Makespan
			}
			row = append(row, formatSeconds(res.Makespan), fmt.Sprintf("%.1f", base[k]/res.Makespan))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("measured kernel costs per pair: naive %.4fs, blocked %.4fs (x%.1f)",
			cal.CPPTrajPair[cpptraj.Naive.String()], cal.CPPTrajPair[cpptraj.Blocked.String()],
			cal.CPPTrajPair[cpptraj.Naive.String()]/cal.CPPTrajPair[cpptraj.Blocked.String()]),
		"expected shape: optimized kernel several times faster in absolute time; both scale to ~100x at 240 cores with the naive kernel showing the higher speedup.")
	return t
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
