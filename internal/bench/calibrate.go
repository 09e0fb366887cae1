package bench

import (
	"math"
	"time"

	"mdtask/internal/balltree"
	"mdtask/internal/cpptraj"
	"mdtask/internal/graph"
	"mdtask/internal/hausdorff"
	"mdtask/internal/leaflet"
	"mdtask/internal/linalg"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// Calibration holds per-operation compute costs measured by running the
// repository's real kernels on this machine. Figure sweeps feed these
// into the cluster performance model so that absolute magnitudes come
// from real measurements while node/core scaling comes from the model.
type Calibration struct {
	// HausdorffPair is the cost (seconds) of one naive Hausdorff
	// trajectory-pair comparison per ensemble preset name.
	HausdorffPair map[string]float64
	// CPPTrajPair is the cost of one full 2D-RMSD pair per kernel label.
	CPPTrajPair map[string]float64
	// CdistPerPair is the cost of one pairwise-distance comparison in
	// brute-force edge discovery.
	CdistPerPair float64
	// TreeBuildPerAtom and TreeQueryPerAtom are the BallTree costs at
	// reference chunk size TreeRefChunk.
	TreeBuildPerAtom float64
	TreeQueryPerAtom float64
	TreeRefChunk     int
	// CCPerOp is the union-find cost per (node+edge) operation.
	CCPerOp float64
	// EdgesPerAtom is the contact-graph edge density of the synthetic
	// membranes at the standard cutoff.
	EdgesPerAtom float64
	// CompIDsPerAtom is the number of partial-component atom ids crossing
	// the Approach-3 shuffle per system atom, keyed by task count
	// (depends on the tiling granularity).
	CompIDsPerAtom map[int]float64

	// calFrames is the frame count used for trajectory timing, scaled up
	// to the presets' 102 frames quadratically.
	calFrames int
}

// timeIt measures fn's wall time, repeating until at least minDur has
// elapsed, and returns seconds per call.
func timeIt(minDur time.Duration, fn func()) float64 {
	reps := 0
	start := time.Now()
	for time.Since(start) < minDur || reps == 0 {
		fn()
		reps++
	}
	return time.Since(start).Seconds() / float64(reps)
}

// calibrationPair is the trajectory pair the Hausdorff and CPPTraj
// kernels are calibrated on: the small preset's atoms at a reduced
// frame count.
func calibrationPair(frames int) (*traj.Trajectory, *traj.Trajectory) {
	return synth.Walk("cal-a", synth.Small.NAtoms, frames, 1, 0),
		synth.Walk("cal-b", synth.Small.NAtoms, frames, 1, 1)
}

// Calibrate measures every kernel cost. It takes a few seconds; results
// should be reused across experiments.
func Calibrate() *Calibration {
	cal := &Calibration{
		HausdorffPair:  make(map[string]float64),
		CPPTrajPair:    make(map[string]float64),
		CompIDsPerAtom: make(map[int]float64),
		calFrames:      20,
	}

	// Hausdorff pair cost: time a reduced-frame pair of the small preset
	// and scale quadratically in frames, linearly in atoms.
	small := synth.Small
	t1, t2 := calibrationPair(cal.calFrames)
	fa, fb := hausdorff.Frames(t1), hausdorff.Frames(t2)
	frameScale := float64(small.NFrames*small.NFrames) / float64(cal.calFrames*cal.calFrames)
	perPairSmall := timeIt(30*time.Millisecond, func() {
		hausdorff.DistanceFrames(fa, fb, hausdorff.Naive)
	}) * frameScale
	for _, p := range synth.EnsemblePresets {
		cal.HausdorffPair[p.Name] = perPairSmall * float64(p.NAtoms) / float64(small.NAtoms)
	}

	// CPPTraj kernels on the same pair.
	for _, k := range []cpptraj.Kernel{cpptraj.Naive, cpptraj.Blocked} {
		k := k
		cal.CPPTrajPair[k.String()] = timeIt(30*time.Millisecond, func() {
			if _, err := cpptraj.Matrix2DRMS(t1, t2, k); err != nil {
				panic(err)
			}
		}) * frameScale
	}

	// cdist cost per pairwise comparison on a real membrane patch.
	patch := synth.Bilayer(4096, 7)
	nPairs := float64(len(patch.Coords)) * float64(len(patch.Coords)-1) / 2
	cal.CdistPerPair = timeIt(30*time.Millisecond, func() {
		linalg.PairsWithinSelf(patch.Coords, synth.BilayerCutoff)
	}) / nPairs

	// BallTree costs on a larger patch.
	big := synth.Bilayer(16384, 8)
	cal.TreeRefChunk = len(big.Coords)
	cal.TreeBuildPerAtom = timeIt(30*time.Millisecond, func() {
		balltree.New(big.Coords)
	}) / float64(len(big.Coords))
	tree := balltree.New(big.Coords)
	var edgeTotal int64
	cal.TreeQueryPerAtom = timeIt(30*time.Millisecond, func() {
		var buf []int32
		edgeTotal = 0
		for _, p := range big.Coords {
			buf = tree.QueryRadiusAppend(buf[:0], p, synth.BilayerCutoff)
			edgeTotal += int64(len(buf))
		}
	}) / float64(len(big.Coords))
	// Each undirected edge was counted twice (once per endpoint), and
	// self-matches once per atom.
	cal.EdgesPerAtom = float64(edgeTotal-int64(len(big.Coords))) / 2 / float64(len(big.Coords))

	// Union-find cost per operation on the measured graph.
	edges := make([]graph.Edge, 0, int(cal.EdgesPerAtom*float64(len(big.Coords))))
	var buf []int32
	for i, p := range big.Coords {
		buf = tree.QueryRadiusAppend(buf[:0], p, synth.BilayerCutoff)
		for _, j := range buf {
			if j > int32(i) {
				edges = append(edges, graph.Edge{U: int32(i), V: j})
			}
		}
	}
	ops := float64(len(big.Coords) + len(edges))
	cal.CCPerOp = timeIt(30*time.Millisecond, func() {
		graph.ComponentsUnionFind(len(big.Coords), edges)
	}) / ops

	return cal
}

// FixedCalibration returns a machine-independent calibration with
// representative values measured once on the development machine. The
// shape tests use it so their assertions do not depend on the
// measurement conditions of the machine running the tests (e.g. race
// instrumentation slows the kernels by an order of magnitude, which
// would distort the modeled compute/coordination ratios).
func FixedCalibration() *Calibration {
	return &Calibration{
		HausdorffPair: map[string]float64{
			"small":  0.187,
			"medium": 0.374,
			"large":  0.749,
		},
		CPPTrajPair: map[string]float64{
			"GNU":                      0.0886,
			"Intel -Wall -O3 (no MKL)": 0.0607,
		},
		CdistPerPair:     2.28e-9,
		TreeBuildPerAtom: 1.20e-6,
		TreeQueryPerAtom: 1.16e-6,
		TreeRefChunk:     16384,
		CCPerOp:          9.4e-9,
		EdgesPerAtom:     5.11,
		CompIDsPerAtom: map[int]float64{
			leafletTasksPaper: 1.795,
			leafletTasks4M:    4.479,
		},
		calFrames: 20,
	}
}

// CompIDs returns the calibrated partial-component shuffle ids per atom
// for a tiling of nTasks tasks, measuring (and caching) it on a 16k-atom
// membrane with proportionally scaled tiling.
func (c *Calibration) CompIDs(nTasks int) float64 {
	if v, ok := c.CompIDsPerAtom[nTasks]; ok {
		return v
	}
	sys := synth.Bilayer(16384, 9)
	st := leaflet.SampleDataMovement(sys.Coords, synth.BilayerCutoff, nTasks)
	v := float64(st.ShuffleBytes) / 4 / float64(len(sys.Coords))
	c.CompIDsPerAtom[nTasks] = v
	return v
}

// TreeQueryCost returns the per-query cost against a chunk of the given
// size, scaling the reference measurement logarithmically.
func (c *Calibration) TreeQueryCost(chunk int) float64 {
	if chunk < 2 {
		chunk = 2
	}
	scale := math.Log2(float64(chunk)) / math.Log2(float64(c.TreeRefChunk))
	if scale < 0.25 {
		scale = 0.25
	}
	return c.TreeQueryPerAtom * scale
}

// TrajBytes is the on-disk size of one trajectory of the preset
// (float64 coordinates).
func TrajBytes(p synth.EnsemblePreset) int64 {
	return int64(p.NFrames) * int64(p.NAtoms) * 24
}
