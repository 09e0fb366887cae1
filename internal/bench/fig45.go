package bench

import (
	"fmt"
	"math"

	"mdtask/internal/cluster"
	"mdtask/internal/synth"
)

// psaFrameworks are the frameworks of the PSA comparison (§4.2).
var psaFrameworks = []cluster.Framework{cluster.MPI, cluster.Spark, cluster.Dask, cluster.RadicalPilot}

// psaWorkload models the paper's PSA execution: the N² Hausdorff
// comparisons are 2-D partitioned into one task per core (Algorithm 2);
// each task reads its 2×n1 input trajectories from the shared
// filesystem (the re-read amplification that limits speedup) and the
// distance blocks are gathered at the client.
func psaWorkload(cal *Calibration, preset synth.EnsemblePreset, nTraj, cores int) cluster.Workload {
	k := int(math.Round(math.Sqrt(float64(cores))))
	if k < 1 {
		k = 1
	}
	tasks := k * k
	pairsPerTask := float64(nTraj) * float64(nTraj) / float64(tasks)
	dur := pairsPerTask * cal.HausdorffPair[preset.Name]
	n1 := nTraj / k
	ioBytes := int64(tasks) * 2 * int64(n1) * TrajBytes(preset)
	return cluster.Workload{
		Name: fmt.Sprintf("psa-%s-%d", preset.Name, nTraj),
		Phases: []cluster.Phase{{
			Name:        "hausdorff-blocks",
			Tasks:       cluster.UniformTasks(tasks, dur),
			IOBytes:     ioBytes,
			GatherBytes: int64(nTraj) * int64(nTraj) * 8,
			ColdStart:   true, // each task launches a fresh analysis process
		}},
	}
}

// corePoint is one cores/nodes configuration of a machine sweep.
type corePoint struct{ cores, nodes int }

// The paper's Figure 4/5 core allocations.
var (
	wranglerPSAPoints = []corePoint{{16, 1}, {64, 2}, {256, 8}}
	cometPSAPoints    = []corePoint{{16, 1}, {64, 4}, {256, 16}}
)

// Fig4 regenerates Figure 4: PSA (Hausdorff) runtimes on Wrangler for
// 128 and 256 trajectories of each size class over 16/64/256 cores, for
// all four frameworks.
func Fig4(cal *Calibration) *Table {
	t := &Table{
		ID:     "fig4",
		Title:  "Hausdorff PSA on Wrangler: runtime (s) by trajectory count, size, cores",
		Header: []string{"trajs", "size", "cores/nodes"},
	}
	for _, fw := range psaFrameworks {
		t.Header = append(t.Header, fw.String())
	}
	m := cluster.Wrangler()
	for _, nTraj := range []int{128, 256} {
		for _, preset := range synth.EnsemblePresets {
			for _, pt := range wranglerPSAPoints {
				row := []interface{}{nTraj, preset.Name, fmt.Sprintf("%d/%d", pt.cores, pt.nodes)}
				w := psaWorkload(cal, preset, nTraj, pt.cores)
				for _, fw := range psaFrameworks {
					alloc := cluster.Alloc{Machine: m, Nodes: pt.nodes, CoresPerNode: pt.cores / pt.nodes}
					res := cluster.Estimate(cluster.DefaultProfile(fw), alloc, w)
					if res.Failed != "" {
						row = append(row, "FAIL")
						continue
					}
					row = append(row, formatSeconds(res.Makespan))
				}
				t.AddRow(row...)
			}
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: all frameworks within a small factor of MPI; ~6x scaling from 16 to 256 cores.")
	return t
}

// Fig5 regenerates Figure 5: PSA runtime and speedup for 128 large
// trajectories on Comet and Wrangler.
func Fig5(cal *Calibration) *Table {
	t := &Table{
		ID:     "fig5",
		Title:  "Hausdorff PSA, 128 large trajectories: runtime and speedup on Comet vs Wrangler",
		Header: []string{"machine", "cores/nodes"},
	}
	for _, fw := range psaFrameworks {
		t.Header = append(t.Header, fw.String()+" time(s)", fw.String()+" speedup")
	}
	for _, mp := range []struct {
		m      cluster.Machine
		points []corePoint
	}{
		{cluster.Comet(), cometPSAPoints},
		{cluster.Wrangler(), wranglerPSAPoints},
	} {
		base := make(map[cluster.Framework]float64)
		for _, pt := range mp.points {
			row := []interface{}{mp.m.Name, fmt.Sprintf("%d/%d", pt.cores, pt.nodes)}
			w := psaWorkload(cal, synth.Large, 128, pt.cores)
			for _, fw := range psaFrameworks {
				alloc := cluster.Alloc{Machine: mp.m, Nodes: pt.nodes, CoresPerNode: pt.cores / pt.nodes}
				res := cluster.Estimate(cluster.DefaultProfile(fw), alloc, w)
				if res.Failed != "" {
					row = append(row, "FAIL", "-")
					continue
				}
				if pt.cores == mp.points[0].cores {
					base[fw] = res.Makespan
				}
				row = append(row, formatSeconds(res.Makespan),
					fmt.Sprintf("%.1f", base[fw]/res.Makespan))
			}
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: similar runtimes on both machines; Wrangler speedup lower than Comet's (hyper-threaded packing).")
	return t
}
