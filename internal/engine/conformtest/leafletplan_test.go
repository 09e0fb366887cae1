package conformtest

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"mdtask/internal/engine"
	"mdtask/internal/graph"
	"mdtask/internal/jobs"
	"mdtask/internal/leaflet"
	"mdtask/internal/linalg"
	"mdtask/internal/synth"
)

// planCutoffs are the cutoffs FuzzLeafletPlanExact draws from: binary
// fractions, where a boundary pair sits at exactly the cutoff, and
// decimal ones, the synthetic membrane's among them, where rounding
// decides which side it lands on.
var planCutoffs = []float64{15, 5, 1, 0.1, synth.BilayerCutoff, 1e-3}

// boundaryMembrane lays out chunks × perChunk atoms so that the 2-D
// grid's chunks (chunk k is atoms [k·perChunk, (k+1)·perChunk)) lie in
// boxes of edge w, and consecutive chunks meet across a pair of atoms
// placed on their facing box faces at exactly the cutoff, or one ulp
// nearer or farther: along +x, −y, +z, or a 3-4-5 diagonal in the xy
// plane. The box gap of two consecutive chunks is then that one pair's
// distance, the case the plan's exactness turns on. Folds along −y can
// bring non-consecutive chunks near each other too.
func boundaryMembrane(r *rand.Rand, chunks, perChunk int, cutoff float64) []linalg.Vec3 {
	w := 0.0 // a one-atom chunk is a point: its link is its exit
	if perChunk > 1 {
		w = cutoff * []float64{0.25, 1, 2}[r.IntN(3)]
	}
	ulp := func(x float64) float64 { // x, or one ulp either side
		return math.Nextafter(x, []float64{math.Inf(-1), x, math.Inf(1)}[r.IntN(3)])
	}
	coords := make([]linalg.Vec3, 0, chunks*perChunk)
	var lo, link linalg.Vec3 // this chunk's box corner and entering atom
	var hi linalg.Vec3       // this chunk's upper box faces
	dir := -1                // the step into this chunk
	inBox := func() linalg.Vec3 {
		var p linalg.Vec3
		for i := range 3 {
			p[i] = min(lo[i]+w*r.Float64(), hi[i])
		}
		return p
	}
	for k := 0; k < chunks; k++ {
		// The box this chunk's atoms keep to: [lo, lo+w], except that a
		// link entering along −y bounds the top face itself (lo+w may
		// round past it).
		for i := range 3 {
			hi[i] = lo[i] + w
		}
		if dir == 1 {
			hi[1] = link[1]
		}
		dir = r.IntN(4) // the step to the next chunk
		exit := inBox()
		switch dir {
		case 0: // +x
			exit[0] = hi[0]
		case 1: // −y
			exit[1] = lo[1]
		case 2: // +z
			exit[2] = hi[2]
		case 3: // +x +y
			exit[0], exit[1] = hi[0], hi[1]
		}
		chunk := []linalg.Vec3{exit}
		if k > 0 {
			chunk = []linalg.Vec3{link, exit}
		}
		if perChunk == 1 {
			chunk = chunk[:1]
		}
		for len(chunk) < perChunk {
			chunk = append(chunk, inBox())
		}
		r.Shuffle(len(chunk), func(i, j int) { chunk[i], chunk[j] = chunk[j], chunk[i] })
		coords = append(coords, chunk...)
		if perChunk == 1 {
			exit = chunk[0]
		}

		// The next chunk's link sits one cutoff past the exit, and its
		// box is placed with the link on the facing face.
		link = exit
		switch dir {
		case 0:
			link[0] = ulp(exit[0] + cutoff)
			lo = linalg.Vec3{link[0], link[1] - w*r.Float64(), link[2] - w*r.Float64()}
		case 1:
			link[1] = ulp(exit[1] - cutoff)
			lo = linalg.Vec3{link[0] - w*r.Float64(), link[1] - w, link[2] - w*r.Float64()}
		case 2:
			link[2] = ulp(exit[2] + cutoff)
			lo = linalg.Vec3{link[0] - w*r.Float64(), link[1] - w*r.Float64(), link[2]}
		case 3:
			link[0] = exit[0] + 0.6*cutoff
			link[1] = ulp(exit[1] + 0.8*cutoff)
			lo = linalg.Vec3{link[0], link[1], link[2] - w*r.Float64()}
		}
	}
	return coords
}

// bruteLeaflet is the pairwise reference: every atom pair i < j with
// linalg.Dist2 <= cutoff² is an edge.
func bruteLeaflet(coords []linalg.Vec3, cutoff float64) ([]int32, int64) {
	uf := graph.NewUnionFind(len(coords))
	var edges int64
	for i := range coords {
		for j := i + 1; j < len(coords); j++ {
			if linalg.Dist2(coords[i], coords[j]) <= cutoff*cutoff {
				uf.Union(int32(i), int32(j))
				edges++
			}
		}
	}
	return uf.Labels(), edges
}

// FuzzLeafletPlanExact is the differential test of the Leaflet plan's
// and kernels' exactness: on boundaryMembrane's layouts, in lattice and
// in shuffled atom order, every tile of the full grid the plan drops
// holds no edge by brute force, and all four approaches (broadcast,
// task2d, parallel-cc and tree) on the serial, spark, dask and mpi
// executors, and leaflet.Serial, label every atom and count edges
// exactly as a brute-force pairwise scan does; the 2-D approaches run
// one task per live tile. Every kernel, the tree approach's cell list
// included, decides pairs by the pairwise Dist2 <= cutoff² test, so the
// pairs the layout puts at the cutoff and one ulp either side, across
// chunk boundaries and on the facing faces of chunk boxes (the edges of
// the cell lists' cells), must land on the same side everywhere.
// tasks = 0 aligns the grid with the layout's chunks; any other value
// tiles across them.
func FuzzLeafletPlanExact(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(3), uint8(0), false, uint8(0))  // 15 Å, aligned
	f.Add(uint64(2), uint8(6), uint8(2), uint8(1), false, uint8(0))  // 3-4-5 at 5 Å
	f.Add(uint64(3), uint8(5), uint8(1), uint8(3), false, uint8(0))  // one-atom chunks, 0.1 Å
	f.Add(uint64(4), uint8(7), uint8(5), uint8(4), true, uint8(0))   // membrane cutoff, shuffled
	f.Add(uint64(5), uint8(6), uint8(4), uint8(2), false, uint8(10)) // misaligned grid
	f.Fuzz(func(t *testing.T, seed uint64, chunks, perChunk, cutoffIdx uint8, shuffled bool, tasks uint8) {
		r := rand.New(rand.NewPCG(seed, 0x1eaf))
		p, m := 2+int(chunks)%6, 1+int(perChunk)%6
		cutoff := planCutoffs[int(cutoffIdx)%len(planCutoffs)]
		coords := boundaryMembrane(r, p, m, cutoff)
		if shuffled {
			r.Shuffle(len(coords), func(i, j int) { coords[i], coords[j] = coords[j], coords[i] })
		}
		nTasks := p * (p + 1) / 2
		if tasks != 0 {
			nTasks = int(tasks)
		}

		live := leaflet.LiveBlocks(coords, cutoff, nTasks)
		kept := make(map[leaflet.BlockSpec]bool, len(live))
		for _, b := range live {
			kept[b] = true
		}
		for _, b := range leaflet.Blocks(len(coords), nTasks) {
			if _, edges := leaflet.BlockPartial(coords, b, cutoff, false); !kept[b] && edges != 0 {
				t.Fatalf("plan drops tile %+v holding %d edges", b, edges)
			}
		}

		labels, edges := bruteLeaflet(coords, cutoff)
		if res := leaflet.Serial(coords, cutoff); !slices.Equal(res.Labels, labels) || res.Stats.Edges != edges {
			t.Fatalf("Serial: %d edges, labels %v; brute force %d edges, labels %v", res.Stats.Edges, res.Labels, edges, labels)
		}
		for _, eng := range []string{jobs.EngineSerial, jobs.EngineSpark, jobs.EngineDask, jobs.EngineMPI} {
			for _, approach := range leaflet.Approaches {
				name := fmt.Sprintf("%s/%v", eng, approach)
				ex, err := jobs.NewExecutor(eng, 2, nil)
				if err != nil {
					t.Fatal(err)
				}
				res, err := leaflet.Run(ex, approach, coords, cutoff, nTasks, engine.Env{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !slices.Equal(res.Labels, labels) {
					t.Fatalf("%s: labels %v, brute force %v", name, res.Labels, labels)
				}
				if res.Stats.Edges != edges || (approach != leaflet.Broadcast1D && res.Stats.Tasks != len(live)) {
					t.Fatalf("%s: %d edges in %d tasks, brute force %d edges, %d live tiles",
						name, res.Stats.Edges, res.Stats.Tasks, edges, len(live))
				}
			}
		}
	})
}
