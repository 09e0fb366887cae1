package leaflet

import (
	"fmt"

	"mdtask/internal/engine"
	"mdtask/internal/graph"
	"mdtask/internal/linalg"
)

// Run executes the Leaflet Finder on any engine with the selected
// architectural approach (Table 2). The approach picks the task body
// and the combine step; how tasks are scheduled, reduced and broadcast
// is the executor's business (an RDD partition per task on Spark, one
// delayed node per task and a bag fold on Dask, a rank loop plus
// collectives on MPI — §4.3). nTasks bounds the number of map tasks (the
// paper uses 1024 partitions).
func Run(ex engine.Executor, approach Approach, coords []linalg.Vec3, cutoff float64, nTasks int, opts ...Option) (*Result, error) {
	o := gatherOpts(opts)
	o.metrics = ex.Metrics()
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
		lists, err := engine.Map(ex, len(chunks), nil, func(i int) ([]graph.Edge, error) {
			return rowChunkEdges(system, chunks[i], cutoff), nil
		})
		if err != nil {
			return nil, err
		}
		return fromEdges(ex, n, lists, Stats{Tasks: len(chunks), BroadcastBytes: CoordBytes(n)}), nil

	case TaskAPI2D:
		// 2-D pre-partitioned blocks; map to edge lists; collect; master
		// computes components. Each task declares its cdist working set
		// (the memory wall of §4.3.2).
		blocks := liveBlocks2D(coords, cutoff, nTasks)
		lists, err := engine.Map(ex, len(blocks),
			func(i int) int64 { return blockMemBytes(blocks[i]) },
			func(i int) ([]graph.Edge, error) { return blockEdges(coords, blocks[i], cutoff, false), nil })
		if err != nil {
			return nil, err
		}
		return fromEdges(ex, n, lists, Stats{Tasks: len(blocks)}), nil

	case ParallelCC, TreeSearch:
		// Map: edges + partial components per block. Reduce: merge
		// component sets sharing nodes. Only components cross the shuffle.
		blocks := liveBlocks2D(coords, cutoff, nTasks)
		useTree := approach == TreeSearch
		mem := func(i int) int64 { return blockMemBytes(blocks[i]) }
		if useTree {
			mem = nil // the tree kernel avoids the cdist matrix (§4.3.4)
		}
		merged, shuffled, err := engine.Reduce(ex, len(blocks), mem,
			func(i int) (TilePartial, error) { return o.tilePartial(coords, blocks[i], cutoff, useTree), nil },
			func(a, b TilePartial) TilePartial {
				return TilePartial{Comps: mergePartialSets(a.Comps, b.Comps), Edges: a.Edges + b.Edges}
			})
		if err != nil {
			return nil, err
		}
		return finish(labelsFromComponents(n, merged.Comps), Stats{
			Tasks:        len(blocks),
			Edges:        merged.Edges,
			ShuffleBytes: shuffled,
		}), nil

	default:
		return nil, fmt.Errorf("leaflet: unknown approach %v", approach)
	}
}

// fromEdges is the combine step of Approaches 1 and 2: the per-task
// edge lists are concatenated on the master and its union-find computes
// the components. The collected edge list is the approaches' shuffle
// (Table 2), accounted once here for every engine — which is why the
// per-task lists carry no wire size of their own.
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

// PlanTasks is the number of tasks Run schedules for an approach over
// coords with task bound nTasks: Approach 1 cuts the rows into 1-D
// chunks, the others run the live tiles of the 2-D grid.
func PlanTasks(approach Approach, coords []linalg.Vec3, cutoff float64, nTasks int) int {
	if approach == Broadcast1D {
		return len(chunks1D(len(coords), nTasks))
	}
	return len(liveBlocks2D(coords, cutoff, nTasks))
}

// blockMemBytes is the cdist working set of one block: rows × cols
// float64 distances (the memory wall of §4.3.2/4.3.3).
func blockMemBytes(b block) int64 {
	return int64(b.rows.len()) * int64(b.cols.len()) * 8
}
