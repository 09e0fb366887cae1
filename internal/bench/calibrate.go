package bench

import (
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
	t1.Packed() // packed before timing: the kernels alone are timed
	t2.Packed()
	frameScale := float64(small.NFrames*small.NFrames) / float64(cal.calFrames*cal.calFrames)
	perPairSmall := timeIt(30*time.Millisecond, func() {
		hausdorff.DistanceCounted(t1, t2, hausdorff.Naive, nil)
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

	// Contact-graph density and union-find cost per operation on a
	// larger patch, its edges found with a BallTree.
	big := synth.Bilayer(16384, 8)
	tree := balltree.New(big.Coords)
	var edges []graph.Edge
	var buf []int32
	for i, p := range big.Coords {
		buf = tree.QueryRadiusAppend(buf[:0], p, synth.BilayerCutoff)
		for _, j := range buf {
			if j > int32(i) {
				edges = append(edges, graph.Edge{U: int32(i), V: j})
			}
		}
	}
	cal.EdgesPerAtom = float64(len(edges)) / float64(len(big.Coords))
	ops := float64(len(big.Coords) + len(edges))
	cal.CCPerOp = timeIt(30*time.Millisecond, func() {
		graph.ComponentsUnionFind(len(big.Coords), edges)
	}) / ops

	return cal
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

// TrajBytes is the on-disk size of one trajectory of the preset
// (float64 coordinates).
func TrajBytes(p synth.EnsemblePreset) int64 {
	return int64(p.NFrames) * int64(p.NAtoms) * 24
}
