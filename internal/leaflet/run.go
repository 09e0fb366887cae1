package leaflet

import (
	"fmt"
	"time"

	"mdtask/internal/engine"
	"mdtask/internal/graph"
	"mdtask/internal/linalg"
)

// Run executes the Leaflet Finder on any engine with the selected
// architectural approach (Table 2). The approach picks the task body
// and the combine step, which runs on the master whatever the engine;
// how tasks are scheduled and broadcast is the executor's business (an
// RDD partition per task on Spark, one delayed node per task on Dask, a
// rank loop plus collectives on MPI — §4.3). nTasks bounds the number
// of map tasks (the paper uses 1024 partitions); workers is the worker
// count the tree approach keeps busy when it plans its tiles by cost
// (treeBlocks), and must not be read from the machine, since the plan
// shows in the result's Stats. The tile bodies of Approaches 2-4 are
// instrumented through env (tileKernel); cancellation is the
// executor's.
func Run(ex engine.Executor, approach Approach, coords []linalg.Vec3, cutoff float64, nTasks, workers int, env engine.Env) (*Result, error) {
	n := len(coords)
	switch approach {
	case Broadcast1D:
		// Broadcast the whole system; 1-D partition the rows; map to edge
		// lists; collect and compute components on the master.
		shared, err := ex.Broadcast(coords, CoordBytes(n))
		if err != nil {
			return nil, err
		}
		system := shared.([]linalg.Vec3)
		chunks := chunks1D(n, nTasks)
		lists, err := engine.Map(ex, len(chunks), func(i int) ([]graph.Edge, error) {
			return rowChunkEdges(system, chunks[i], cutoff), nil
		})
		if err != nil {
			return nil, err
		}
		return fromEdges(ex, n, lists, Stats{Tasks: len(chunks), BroadcastBytes: CoordBytes(n)}), nil

	case TaskAPI2D:
		// 2-D pre-partitioned blocks; map to edge lists; collect; master
		// computes components.
		blocks := liveBlocks2D(coords, cutoff, nTasks)
		lists, err := engine.Map(ex, len(blocks), func(i int) ([]graph.Edge, error) {
			b := blocks[i]
			return tileKernel(env, b, func() []graph.Edge { return blockEdgesBrute(coords, b, cutoff) }), nil
		})
		if err != nil {
			return nil, err
		}
		return fromEdges(ex, n, lists, Stats{Tasks: len(blocks)}), nil

	case ParallelCC, TreeSearch:
		// Map: edges + partial components per block; only components
		// cross the shuffle. Combine: join them on the master.
		useTree := approach == TreeSearch
		blocks := tilesFor(coords, cutoff, nTasks, workers, useTree)
		tiles, err := engine.Map(ex, len(blocks), func(i int) (TilePartial, error) {
			b := blocks[i]
			return tileKernel(env, b, func() TilePartial {
				return tilePartial(b.rows.of(coords), b.cols.of(coords), b, cutoff, useTree)
			}), nil
		})
		if err != nil {
			return nil, err
		}
		return fromTiles(ex, n, tiles), nil

	default:
		return nil, fmt.Errorf("leaflet: unknown approach %v", approach)
	}
}

// tileKernel is the one instrumented call every tile body's kernel runs
// through — Run's for Approaches 2-4 and the staged engines'
// ChunkPartial: it records a leaflet.tile span bounded by b (global
// atom ids) under env.TraceParent and observes the kernel's wall time
// into env.KernelHist.
func tileKernel[T any](env engine.Env, b block, kernel func() T) T {
	span := env.Tracer.StartChild(env.TraceParent, "leaflet.tile")
	span.SetAttr("tile", fmt.Sprintf("[%d:%d)x[%d:%d)", b.rows.lo, b.rows.hi, b.cols.lo, b.cols.hi))
	defer span.End()
	start := time.Now()
	v := kernel()
	env.KernelHist.Observe(time.Since(start).Seconds())
	return v
}

// fromEdges is the combine step of Approaches 1 and 2: the per-task
// edge lists are concatenated on the master and its union-find computes
// the components. The collected edge list is the approaches' shuffle
// (Table 2), accounted once here for every engine; no executor
// accounts the values its Map collects.
func fromEdges(ex engine.Executor, n int, lists [][]graph.Edge, stats Stats) *Result {
	var edges []graph.Edge
	for _, l := range lists {
		edges = append(edges, l...)
	}
	stats.Edges = int64(len(edges))
	stats.ShuffleBytes = graph.EdgeBytes(len(edges))
	ex.Metrics().AddShuffle(stats.ShuffleBytes)
	return finish(graph.ComponentsUnionFind(n, edges), stats)
}

// fromTiles is the combine step of Approaches 3 and 4: the per-task
// partial components are collected on the master and joined in one
// union-find pass (FromPartials, the staged engines' combine too). The
// collected components are the approaches' shuffle (Table 2),
// accounted once here for every engine, as fromEdges accounts edges.
func fromTiles(ex engine.Executor, n int, tiles []TilePartial) *Result {
	parts := make([][]graph.Component, len(tiles))
	stats := Stats{Tasks: len(tiles)}
	for i, tp := range tiles {
		parts[i] = tp.Comps
		stats.Edges += tp.Edges
		stats.ShuffleBytes += graph.ComponentBytes(tp.Comps)
	}
	ex.Metrics().AddShuffle(stats.ShuffleBytes)
	return FromPartials(n, parts, stats)
}
