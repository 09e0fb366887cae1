// Package mdtask_test holds the repository-level benchmark harness: one
// testing.B benchmark per table/figure of the paper (each regenerates
// the artifact through the experiment harness) plus ablation benchmarks
// for the design choices DESIGN.md calls out (early-break Hausdorff,
// union-find vs BFS components, tree vs brute edge discovery, 1-D vs
// 2-D partitioning, partial-component shuffle reduction, stage-barrier
// vs greedy DAG scheduling).
//
// Run with: go test -bench=. -benchmem
package mdtask_test

import (
	"sync"
	"testing"

	"mdtask/internal/balltree"
	"mdtask/internal/bench"
	"mdtask/internal/cluster"
	"mdtask/internal/dask"
	"mdtask/internal/graph"
	"mdtask/internal/hausdorff"
	"mdtask/internal/leaflet"
	"mdtask/internal/linalg"
	"mdtask/internal/psa"
	"mdtask/internal/rdd"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

var (
	calOnce sync.Once
	cal     *bench.Calibration
)

func calibration() *bench.Calibration {
	calOnce.Do(func() { cal = bench.Calibrate() })
	return cal
}

// benchExperiment regenerates one paper artifact per iteration.
func benchExperiment(b *testing.B, id string) {
	c := calibration()
	exp, err := bench.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := exp.Run(c)
		if len(t.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// One benchmark per paper artifact (Figures 2-9, Tables 1-3).

func BenchmarkFig2Throughput(b *testing.B)    { benchExperiment(b, "fig2") }
func BenchmarkFig3MultiNode(b *testing.B)     { benchExperiment(b, "fig3") }
func BenchmarkFig4PSA(b *testing.B)           { benchExperiment(b, "fig4") }
func BenchmarkFig5PSAMachines(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6CPPTraj(b *testing.B)       { benchExperiment(b, "fig6") }
func BenchmarkFig7Leaflet(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8Broadcast(b *testing.B)     { benchExperiment(b, "fig8") }
func BenchmarkFig9PilotLeaflet(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkTab1Comparison(b *testing.B)    { benchExperiment(b, "tab1") }
func BenchmarkTab2MapReduceOps(b *testing.B)  { benchExperiment(b, "tab2") }
func BenchmarkTab3DecisionFrame(b *testing.B) { benchExperiment(b, "tab3") }

// --- Kernel benchmarks backing the calibration ---

func benchTrajPair() (fa, fb [][]linalg.Vec3) {
	a := synth.Walk("a", 334, 40, 7, 0) // 1/10th-scale "small" preset
	bb := synth.Walk("b", 334, 40, 7, 1)
	return hausdorff.Frames(a), hausdorff.Frames(bb)
}

// Ablation: the early-break Hausdorff optimization (§2.1.1, [34]).
func BenchmarkHausdorffNaive(b *testing.B) {
	fa, fb := benchTrajPair()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hausdorff.DistanceFrames(fa, fb, hausdorff.Naive)
	}
}

func BenchmarkHausdorffEarlyBreak(b *testing.B) {
	fa, fb := benchTrajPair()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hausdorff.DistanceFrames(fa, fb, hausdorff.EarlyBreak)
	}
}

// Ablation: union-find vs BFS connected components.
func benchGraph() (int, []graph.Edge) {
	sys := synth.Bilayer(16384, 3)
	tree := balltree.New(sys.Coords)
	var edges []graph.Edge
	var buf []int32
	for i, p := range sys.Coords {
		buf = tree.QueryRadiusAppend(buf[:0], p, synth.BilayerCutoff)
		for _, j := range buf {
			if j > int32(i) {
				edges = append(edges, graph.Edge{U: int32(i), V: j})
			}
		}
	}
	return len(sys.Coords), edges
}

func BenchmarkConnectedComponentsUnionFind(b *testing.B) {
	n, edges := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.ComponentsUnionFind(n, edges)
	}
}

func BenchmarkConnectedComponentsBFS(b *testing.B) {
	n, edges := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.ComponentsBFS(n, edges)
	}
}

// Ablation: brute-force vs tree-based edge discovery (the Approach 3 vs
// 4 crossover of §4.3.4).
func BenchmarkEdgeDiscoveryBrute(b *testing.B) {
	sys := synth.Bilayer(4096, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.PairsWithinSelf(sys.Coords, synth.BilayerCutoff)
	}
}

func BenchmarkEdgeDiscoveryTree(b *testing.B) {
	sys := synth.Bilayer(4096, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := balltree.New(sys.Coords)
		var buf []int32
		for _, p := range sys.Coords {
			buf = tree.QueryRadiusAppend(buf[:0], p, synth.BilayerCutoff)
		}
	}
}

func BenchmarkBallTreeConstruction(b *testing.B) {
	sys := synth.Bilayer(16384, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		balltree.New(sys.Coords)
	}
}

// Ablation: 1-D vs 2-D partitioning load balance (§4.3.2). The metric is
// the modeled makespan on 64 cores: 1-D row chunks are imbalanced
// (earlier chunks scan more pairs), 2-D tiles are uniform.
func BenchmarkPartitioning1D(b *testing.B) {
	benchPartitioning(b, true)
}

func BenchmarkPartitioning2D(b *testing.B) {
	benchPartitioning(b, false)
}

func benchPartitioning(b *testing.B, oneD bool) {
	c := calibration()
	const atoms = 131072
	var makespan float64
	for i := 0; i < b.N; i++ {
		var tasks []float64
		if oneD {
			_, pairs := leaflet.Plan1D(atoms, 1024)
			for _, p := range pairs {
				tasks = append(tasks, float64(p)*c.CdistPerPair)
			}
		} else {
			for _, blk := range leaflet.Plan2D(atoms, 1024) {
				tasks = append(tasks, float64(blk.Rows)*float64(blk.Cols)*c.CdistPerPair)
			}
		}
		res := cluster.Estimate(cluster.DefaultProfile(cluster.MPI),
			cluster.Alloc{Machine: cluster.Wrangler(), Nodes: 2, CoresPerNode: 32},
			cluster.Workload{Phases: []cluster.Phase{{Name: "p", Tasks: tasks}}})
		makespan = res.Makespan
	}
	b.ReportMetric(makespan, "model-makespan-s")
}

// Ablation: shuffle volume of edge lists vs partial components (Table 2)
// measured on real runs.
func BenchmarkShuffleVolumeEdges(b *testing.B) {
	benchShuffle(b, leaflet.TaskAPI2D)
}

func BenchmarkShuffleVolumeComponents(b *testing.B) {
	benchShuffle(b, leaflet.ParallelCC)
}

func benchShuffle(b *testing.B, approach leaflet.Approach) {
	sys := synth.Bilayer(8192, 9)
	var bytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := leaflet.Run(rdd.NewExecutor(rdd.NewContext(0), nil), approach, sys.Coords, synth.BilayerCutoff, 64)
		if err != nil {
			b.Fatal(err)
		}
		bytes = res.Stats.ShuffleBytes
	}
	b.ReportMetric(float64(bytes), "shuffle-bytes")
}

// Ablation: stage-barrier (Spark-like) vs greedy DAG (Dask-like)
// dispatch on many null tasks.
func BenchmarkSchedulerModelStageBarrier(b *testing.B) {
	benchScheduler(b, cluster.Spark)
}

func BenchmarkSchedulerModelGreedyDAG(b *testing.B) {
	benchScheduler(b, cluster.Dask)
}

func benchScheduler(b *testing.B, fw cluster.Framework) {
	prof := cluster.DefaultProfile(fw)
	prof.Startup = 0
	w := cluster.Workload{Phases: []cluster.Phase{{
		Name:  "null",
		Tasks: cluster.UniformTasks(16384, 0),
	}}}
	var makespan float64
	for i := 0; i < b.N; i++ {
		res := cluster.Estimate(prof, cluster.Alloc{
			Machine: cluster.Wrangler(), Nodes: 1, CoresPerNode: 24,
		}, w)
		makespan = res.Makespan
	}
	b.ReportMetric(makespan, "model-makespan-s")
}

// Real-engine PSA micro-benchmarks (one block task per core).
func BenchmarkPSASerial(b *testing.B) {
	ens := synth.Ensemble(synth.EnsemblePreset{Name: "b", NAtoms: 128, NFrames: 20}, 8, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := psa.SerialRefs(traj.RefsOf(ens), psa.Opts{Method: hausdorff.Naive}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPSARDDEngine(b *testing.B) {
	ens := synth.Ensemble(synth.EnsemblePreset{Name: "b", NAtoms: 128, NFrames: 20}, 8, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := psa.Run(rdd.NewExecutor(rdd.NewContext(0), nil), traj.RefsOf(ens), 2, psa.Opts{Method: hausdorff.Naive}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPSADaskEngine(b *testing.B) {
	ens := synth.Ensemble(synth.EnsemblePreset{Name: "b", NAtoms: 128, NFrames: 20}, 8, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := psa.Run(dask.NewExecutor(dask.NewClient(0), nil), traj.RefsOf(ens), 2, psa.Opts{Method: hausdorff.Naive}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLeafletSerial64k(b *testing.B) {
	sys := synth.Bilayer(65536, 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := leaflet.Serial(sys.Coords, synth.BilayerCutoff)
		if len(res.Components) != 2 {
			b.Fatal("wrong component count")
		}
	}
}
