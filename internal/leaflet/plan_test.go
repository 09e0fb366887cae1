package leaflet

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"mdtask/internal/graph"
	"mdtask/internal/linalg"
	"mdtask/internal/synth"
)

// shuffledCopy returns coords in a seeded random order.
func shuffledCopy(coords []linalg.Vec3, seed uint64) []linalg.Vec3 {
	out := slices.Clone(coords)
	r := rand.New(rand.NewPCG(seed, 0))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Every grouping the tree plan weighs is exact: a coarse chunk's box is
// the box of its own atoms, however many fine chunks it joins, and each
// coarse tile it drops holds no brute-force edge. The groupings of 3, 5
// and 7 chunks put one chunk across the two leaflets of a lattice-order
// membrane.
func TestCoarsenedTilesDropNoEdge(t *testing.T) {
	sys := membrane(3000)
	for _, order := range []struct {
		name   string
		coords []linalg.Vec3
	}{{"lattice", sys.Coords}, {"shuffled", shuffledCopy(sys.Coords, 3)}} {
		fine := chunks2D(len(order.coords), 1024)
		boxes := boxesOf(order.coords, fine)
		for _, p := range []int{1, 2, 3, 5, 7, 16, len(fine)} {
			ch, bx := coarsen(nil, nil, fine, boxes, p)
			if len(ch) != p || ch[0].lo != 0 || ch[p-1].hi != len(order.coords) {
				t.Fatalf("%s p=%d: chunks %v", order.name, p, ch)
			}
			for i, c := range ch {
				if i > 0 && ch[i-1].hi != c.lo {
					t.Fatalf("%s p=%d: chunks %v are not consecutive", order.name, p, ch)
				}
				if want := boxOf(c.of(order.coords)); bx[i] != want {
					t.Fatalf("%s p=%d chunk %v: box %v, want its atoms' %v", order.name, p, c, bx[i], want)
				}
			}
			live := liveTiles(nil, ch, bx, synth.BilayerCutoff)
			for i := range ch {
				for j := i; j < len(ch); j++ {
					b := block{rows: ch[i], cols: ch[j]}
					if !slices.Contains(live, b) && len(blockEdgesBrute(order.coords, b, synth.BilayerCutoff)) != 0 {
						t.Fatalf("%s p=%d: dropped tile %v holds edges", order.name, p, b)
					}
				}
			}
		}
	}
}

// checkTreeRule checks the rule treeBlocks applies, restated over every
// grouping, and returns the plan: it must keep at least min(4·workers,
// the fine grid's live tiles) tiles in at most min(fine chunks,
// 4·workers) chunks, and no grouping that keeps as many may bin fewer
// atoms, or as few in more tiles.
func checkTreeRule(t *testing.T, name string, coords []linalg.Vec3, cutoff float64, maxTasks, workers int) []block {
	t.Helper()
	plan := treeBlocks(coords, cutoff, maxTasks, workers)
	fine := chunks2D(len(coords), maxTasks)
	boxes := boxesOf(coords, fine)
	want := min(4*workers, len(liveTiles(nil, fine, boxes, cutoff)))
	chunks := 0
	for _, b := range plan {
		if b.rows == b.cols {
			chunks++
		}
	}
	if len(plan) < want || chunks > min(len(fine), 4*workers) {
		t.Fatalf("%s W=%d: %d tiles in %d chunks, want at least %d tiles in at most %d chunks",
			name, workers, len(plan), chunks, want, min(len(fine), 4*workers))
	}
	cost := binnedAtoms(plan)
	for p := 1; p <= min(len(fine), 4*workers); p++ {
		ch, bx := coarsen(nil, nil, fine, boxes, p)
		tiles := liveTiles(nil, ch, bx, cutoff)
		if c := binnedAtoms(tiles); len(tiles) >= want && (c < cost || c == cost && len(tiles) > len(plan)) {
			t.Fatalf("%s W=%d: %d chunks bin %d atoms in %d tiles, the plan %d in %d", name, workers, p, c, len(tiles), cost, len(plan))
		}
	}
	return plan
}

// The tree plan keeps its rule on both atom orders and every worker
// count, is a function of its arguments alone, and on the leaflet-cold
// shape (32768 atoms, 1024 tasks) bins no more atoms than the fine
// grid's 86 live tiles (lattice order) or 990 (shuffled), in under a
// third of their tiles for up to four workers.
func TestTreePlanRule(t *testing.T) {
	sys := membrane(32768)
	for _, order := range []struct {
		name      string
		coords    []linalg.Vec3
		fineTiles int
	}{{"lattice", sys.Coords, 86}, {"shuffled", shuffledCopy(sys.Coords, 9), 990}} {
		fine := liveBlocks2D(order.coords, synth.BilayerCutoff, 1024)
		if len(fine) != order.fineTiles {
			t.Fatalf("%s: the fine grid keeps %d tiles, want %d", order.name, len(fine), order.fineTiles)
		}
		for _, w := range []int{1, 2, 4, 16} {
			plan := checkTreeRule(t, order.name, order.coords, synth.BilayerCutoff, 1024, w)
			if binnedAtoms(plan) > binnedAtoms(fine) || w <= 4 && len(plan) >= len(fine)/3 {
				t.Errorf("%s W=%d: %d tiles binning %d atoms, the fine grid %d binning %d",
					order.name, w, len(plan), binnedAtoms(plan), len(fine), binnedAtoms(fine))
			}
			if again := treeBlocks(order.coords, synth.BilayerCutoff, 1024, w); !slices.Equal(again, plan) {
				t.Errorf("%s W=%d: a second plan differs", order.name, w)
			}
		}
	}
	// Small and degenerate inputs: no atoms, one atom, fewer atoms than
	// tasks, one task, and a worker count below one.
	for _, c := range []struct{ n, tasks, workers int }{{0, 1024, 4}, {1, 1024, 4}, {5, 1024, 1}, {600, 1, 4}, {600, 16, 0}} {
		coords := membrane(max(c.n, 2)).Coords[:c.n]
		plan := treeBlocks(coords, synth.BilayerCutoff, c.tasks, c.workers)
		if c.n == 0 && len(plan) != 0 || c.n > 0 && len(plan) == 0 {
			t.Errorf("%+v: %d tiles", c, len(plan))
		}
		if c.n > 0 && !slices.Equal(checkTreeRule(t, fmt.Sprint(c), coords, synth.BilayerCutoff, c.tasks, max(c.workers, 1)), plan) {
			t.Errorf("%+v: the plan for %d workers is not the plan for one", c, c.workers)
		}
	}
}

// BenchmarkLeafletPlan times one Approach 4 job of the leaflet-cold
// shape on one core, the fine grid's live tiles against the tree
// approach's cost plan for 1, 2 and 4 workers, on a 32768-atom membrane
// in lattice and in shuffled order: the plan, every tile body in turn
// (tilePartial) and the combine (FromPartials). It reports the tiles and
// the atoms their kernels bin and scan per job. It gates nothing.
func BenchmarkLeafletPlan(b *testing.B) {
	sys := membrane(32768)
	for _, order := range []struct {
		name   string
		coords []linalg.Vec3
	}{{"lattice", sys.Coords}, {"shuffled", shuffledCopy(sys.Coords, 9)}} {
		coords := order.coords
		plans := []struct {
			name string
			plan func() []block
		}{{"fine", func() []block { return liveBlocks2D(coords, synth.BilayerCutoff, 1024) }}}
		for _, w := range []int{1, 2, 4} {
			plans = append(plans, struct {
				name string
				plan func() []block
			}{fmt.Sprintf("cost-W%d", w), func() []block { return treeBlocks(coords, synth.BilayerCutoff, 1024, w) }})
		}
		for _, p := range plans {
			b.Run(order.name+"/"+p.name, func(b *testing.B) {
				var tiles []block
				for i := 0; i < b.N; i++ {
					tiles = p.plan()
					parts := make([][]graph.Component, len(tiles))
					for k, t := range tiles {
						parts[k] = tilePartial(t.rows.of(coords), t.cols.of(coords), t, synth.BilayerCutoff, true).Comps
					}
					FromPartials(len(coords), parts, Stats{Tasks: len(tiles)})
				}
				b.ReportMetric(float64(len(tiles)), "tiles/op")
				b.ReportMetric(float64(binnedAtoms(tiles)), "binned/op")
			})
		}
	}
}
