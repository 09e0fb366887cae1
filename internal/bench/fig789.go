package bench

import (
	"fmt"

	"mdtask/internal/cluster"
	"mdtask/internal/dask"
	"mdtask/internal/leaflet"
	"mdtask/internal/synth"
)

// Wire sizes of shuffled records, reproducing the paper's measured
// volumes (§4.3.3: 524k atoms -> ~100MB edge lists; 12MB Spark / 48MB
// Dask partial components).
const (
	edgeWireBytes     = 28 // a pythonic (int, int) edge tuple
	compWireSpark     = 24 // atom ids in Spark's component lists
	compWireDask      = 96 // Dask's less compact component representation
	compWireMPI       = 24
	leafletTasksPaper = 1024 // the paper's partition count
	// The paper repartitioned the 4M Approach-3 run into 42k tasks to fit
	// cdist blocks in memory (§4.3).
	leafletTasks4M = 42_000
)

// Python-stack cost factors. The paper's implementations run on
// NumPy/SciPy/Scikit-Learn/NetworkX; the Go kernels in this repository
// are one to two orders of magnitude faster per operation. Feeding raw
// Go costs into the cluster model would understate compute relative to
// coordination overheads and erase the paper's crossovers, so the
// workload builders restore the Python stack's cost levels with these
// factors (see DESIGN.md §1 and EXPERIMENTS.md):
const (
	// pyCdistFactor scales the measured Go pairwise-distance cost to
	// scipy.cdist + numpy filtering levels (~50ns/pair).
	pyCdistFactor = 20
	// pyCCFactor scales the Go union-find cost to NetworkX
	// connected-components levels (~µs/op).
	pyCCFactor = 100
	// pyTreePerQuery is the effective cost of one tree radius query in
	// the Python stack (sklearn BallTree query plus per-neighbor
	// Python-level graph construction). Under the paper's 2-D tiling
	// each atom is queried once per column block, so total tree work is
	// ~(p+1)/2 queries per atom for p chunks. The value is chosen to
	// reproduce the paper's measured crossover: pairwise distances win
	// up to 262k atoms, the tree wins from 524k (§4.3.4).
	pyTreePerQuery = 0.39e-3
)

// compWire returns the per-atom-id shuffle size of partial components
// for a framework.
func compWire(fw cluster.Framework) int64 {
	switch fw {
	case cluster.Dask:
		return compWireDask
	case cluster.Spark:
		return compWireSpark
	default:
		return compWireMPI
	}
}

// leafletFrameworks are the frameworks of Figure 7 (RADICAL-Pilot is
// evaluated separately in Figure 9).
var leafletFrameworks = []cluster.Framework{cluster.Spark, cluster.Dask, cluster.MPI}

// wranglerLeafletPoints are Figure 7's core allocations (32 cores/node).
var wranglerLeafletPoints = []corePoint{{32, 1}, {64, 2}, {128, 4}, {256, 8}}

// leafletWorkload models one Leaflet Finder run: per-task edge-discovery
// durations from the calibrated kernels, plus the approach's data
// movement (Table 2).
func leafletWorkload(cal *Calibration, approach leaflet.Approach, natoms, nTasks int, fw cluster.Framework, coldStart bool) cluster.Workload {
	pairCost := cal.CdistPerPair * pyCdistFactor
	ccOp := cal.CCPerOp * pyCCFactor
	edges := cal.EdgesPerAtom * float64(natoms)
	ccSerial := (float64(natoms) + edges) * ccOp
	var ph cluster.Phase
	ph.Name = approach.String()
	ph.ColdStart = coldStart

	switch approach {
	case leaflet.Broadcast1D:
		lens, pairs := leaflet.Plan1D(natoms, nTasks)
		durs := make([]float64, len(pairs))
		maxChunk := 0
		for i, p := range pairs {
			durs[i] = float64(p) * pairCost
			if lens[i] > maxChunk {
				maxChunk = lens[i]
			}
		}
		ph.Tasks = durs
		ph.BroadcastBytes = leaflet.CoordBytes(natoms)
		ph.BroadcastItems = int64(natoms)
		ph.ShuffleBytes = int64(edges) * edgeWireBytes
		ph.SerialSeconds = ccSerial
		ph.MemPerTaskBytes = int64(maxChunk) * int64(natoms) * 8

	case leaflet.TaskAPI2D, leaflet.ParallelCC:
		blocks := leaflet.Plan2D(natoms, nTasks)
		durs := make([]float64, len(blocks))
		var maxMem int64
		perBlockCC := edges / float64(len(blocks)) * ccOp
		for i, b := range blocks {
			p := float64(b.Rows) * float64(b.Cols)
			if b.Diagonal {
				p = float64(b.Rows) * float64(b.Rows-1) / 2
			}
			durs[i] = p * pairCost
			if approach == leaflet.ParallelCC {
				durs[i] += perBlockCC
			}
			if m := int64(b.Rows) * int64(b.Cols) * 8; m > maxMem {
				maxMem = m
			}
		}
		ph.Tasks = durs
		ph.MemPerTaskBytes = maxMem
		if approach == leaflet.TaskAPI2D {
			ph.ShuffleBytes = int64(edges) * edgeWireBytes
			ph.SerialSeconds = ccSerial
		} else {
			compIDs := cal.CompIDs(nTasks) * float64(natoms)
			ph.ShuffleBytes = int64(compIDs) * compWire(fw)
			ph.SerialSeconds = compIDs * ccOp
		}

	case leaflet.TreeSearch:
		blocks := leaflet.Plan2D(natoms, nTasks)
		durs := make([]float64, len(blocks))
		perBlockCC := edges / float64(len(blocks)) * ccOp
		for i, b := range blocks {
			durs[i] = float64(b.Rows)*pyTreePerQuery + perBlockCC
		}
		ph.Tasks = durs
		compIDs := cal.CompIDs(nTasks) * float64(natoms)
		ph.ShuffleBytes = int64(compIDs) * compWire(fw)
		ph.SerialSeconds = compIDs * ccOp
	}
	return cluster.Workload{Name: fmt.Sprintf("leaflet-%dk", natoms/1000), Phases: []cluster.Phase{ph}}
}

// estimateLeaflet runs the model, retrying the 4M Approach-3 case with
// the paper's 42k-task repartitioning when the 1024-task tiling exceeds
// node memory.
func estimateLeaflet(cal *Calibration, approach leaflet.Approach, natoms int, fw cluster.Framework, alloc cluster.Alloc) (cluster.Result, int) {
	w := leafletWorkload(cal, approach, natoms, leafletTasksPaper, fw, false)
	res := cluster.Estimate(cluster.DefaultProfile(fw), alloc, w)
	if res.Failed != "" && approach == leaflet.ParallelCC {
		w = leafletWorkload(cal, approach, natoms, leafletTasks4M, fw, false)
		res2 := cluster.Estimate(cluster.DefaultProfile(fw), alloc, w)
		if res2.Failed == "" {
			return res2, leafletTasks4M
		}
	}
	return res, leafletTasksPaper
}

// Fig7 regenerates Figure 7: Leaflet Finder runtimes and speedups for
// the four architectural approaches across Spark, Dask and MPI on the
// four system sizes over 32..256 Wrangler cores.
func Fig7(cal *Calibration) *Table {
	t := &Table{
		ID:     "fig7",
		Title:  "Leaflet Finder: runtime (s) and speedup by approach, framework, system size",
		Header: []string{"approach", "atoms", "cores/nodes"},
	}
	for _, fw := range leafletFrameworks {
		t.Header = append(t.Header, fw.String(), fw.String()+" spdup")
	}
	m := cluster.Wrangler()
	for _, approach := range leaflet.Approaches {
		for _, preset := range synth.MembranePresets {
			base := make(map[cluster.Framework]float64)
			for _, pt := range wranglerLeafletPoints {
				row := []interface{}{approach.String(), preset.Name,
					fmt.Sprintf("%d/%d", pt.cores, pt.nodes)}
				alloc := cluster.Alloc{Machine: m, Nodes: pt.nodes, CoresPerNode: pt.cores / pt.nodes}
				for _, fw := range leafletFrameworks {
					if approach == leaflet.Broadcast1D && fw == cluster.Dask &&
						preset.NAtoms > dask.ScatterElementLimit {
						row = append(row, "FAIL(scatter)", "-")
						continue
					}
					res, _ := estimateLeaflet(cal, approach, preset.NAtoms, fw, alloc)
					if res.Failed != "" {
						row = append(row, "FAIL(mem)", "-")
						continue
					}
					if _, ok := base[fw]; !ok {
						base[fw] = res.Makespan
					}
					row = append(row, formatSeconds(res.Makespan),
						fmt.Sprintf("%.1f", base[fw]/res.Makespan))
				}
				t.AddRow(row...)
			}
		}
	}
	t.Notes = append(t.Notes,
		"speedups are relative to each framework's first non-failing core count (32 cores).",
		"expected shape: Approach 1 worst; Approach 3 ~20% faster than 2 for Spark/Dask; tree search wins only for >=524k atoms; MPI near-linear while Spark/Dask cap around 4.5-5x; 4M runs only under Approach 3 (42k tasks, Spark/MPI) and Approach 4.")
	return t
}

// Fig8 regenerates Figure 8: the broadcast-vs-total decomposition of
// Approach 1 for the 131k and 262k systems.
func Fig8(cal *Calibration) *Table {
	t := &Table{
		ID:     "fig8",
		Title:  "Leaflet Finder Approach 1: broadcast time vs total runtime",
		Header: []string{"atoms", "cores/nodes"},
	}
	for _, fw := range leafletFrameworks {
		t.Header = append(t.Header, fw.String()+" bcast(s)", fw.String()+" total(s)", fw.String()+" share")
	}
	m := cluster.Wrangler()
	for _, preset := range []synth.MembranePreset{synth.M131k, synth.M262k} {
		for _, pt := range wranglerLeafletPoints {
			row := []interface{}{preset.Name, fmt.Sprintf("%d/%d", pt.cores, pt.nodes)}
			alloc := cluster.Alloc{Machine: m, Nodes: pt.nodes, CoresPerNode: pt.cores / pt.nodes}
			for _, fw := range leafletFrameworks {
				w := leafletWorkload(cal, leaflet.Broadcast1D, preset.NAtoms, leafletTasksPaper, fw, false)
				res := cluster.Estimate(cluster.DefaultProfile(fw), alloc, w)
				if res.Failed != "" {
					row = append(row, "-", "FAIL", "-")
					continue
				}
				row = append(row, formatSeconds(res.Broadcast),
					formatSeconds(res.Makespan),
					fmt.Sprintf("%.0f%%", 100*res.Broadcast/res.Makespan))
			}
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: MPI broadcast smallest and growing with ranks; Spark's flat and small; Dask's a large share of the runtime (per-element scatter).")
	return t
}

// Fig9 regenerates Figure 9: RADICAL-Pilot running the Approach-2
// Leaflet Finder on 131k-524k atoms; overheads dominate, so runtimes are
// similar despite the system size.
func Fig9(cal *Calibration) *Table {
	t := &Table{
		ID:     "fig9",
		Title:  "RADICAL-Pilot Leaflet Finder (Approach 2): runtime (s) by system size and cores",
		Header: []string{"cores/nodes", "131k", "262k", "524k"},
	}
	m := cluster.Wrangler()
	prof := cluster.DefaultProfile(cluster.RadicalPilot)
	for _, pt := range wranglerLeafletPoints {
		row := []interface{}{fmt.Sprintf("%d/%d", pt.cores, pt.nodes)}
		alloc := cluster.Alloc{Machine: m, Nodes: pt.nodes, CoresPerNode: pt.cores / pt.nodes}
		for _, preset := range []synth.MembranePreset{synth.M131k, synth.M262k, synth.M524k} {
			w := leafletWorkload(cal, leaflet.TaskAPI2D, preset.NAtoms, leafletTasksPaper, cluster.RadicalPilot, true)
			res := cluster.Estimate(prof, alloc, w)
			if res.Failed != "" {
				row = append(row, "FAIL")
				continue
			}
			row = append(row, formatSeconds(res.Makespan))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"expected shape: runtimes dominated by per-unit overheads (similar across sizes), improving sharply beyond 64 cores.")
	return t
}
