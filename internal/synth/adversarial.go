package synth

import (
	"math/rand/v2"

	"mdtask/internal/linalg"
	"mdtask/internal/traj"
)

// Adversarial builds a small ensemble — one trajectory per entry of
// frames, named "a", "b", … — shaped to break exact pruning rather than
// to resemble MD: it is the input generator of the differential fuzz
// tests (hausdorff.FuzzHausdorffMethodsAgree, conformtest's
// FuzzEnginesAgree). kind%5 selects the structure the pruning devices
// are most likely to mishandle:
//
//	0  independent frames: no temporal coherence at all
//	1  a walk: consecutive frames are near neighbours
//	2  runs of exact duplicates, and every trajectory after the first
//	   revisits the first one's frames, so zero distances and ties abound
//	3  coincident centroids: the centroid bound is useless
//	4  every trajectory walks away from one shared start frame
//
// and seed%5 moves the coordinates across 60 orders of magnitude (every
// choice still fits a float32 .mdt). Deterministic in its arguments.
func Adversarial(nAtoms int, frames []int, kind uint8, seed uint64) traj.Ensemble {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	scale := []float64{1, 1e-30, 1e-3, 1e6, 1e30}[seed%5]
	frame := func(base []linalg.Vec3, jitter float64) []linalg.Vec3 {
		out := make([]linalg.Vec3, nAtoms)
		for i := range out {
			for k := 0; k < 3; k++ {
				v := r.NormFloat64() * jitter
				if base != nil {
					v += base[i][k] / scale
				}
				out[i][k] = v * scale
			}
		}
		return out
	}
	// centered mirrors the second half of a frame onto the first, so
	// its centroid is (numerically almost) the origin whatever the
	// coordinates: coincident centroids across every frame.
	centered := func(f []linalg.Vec3) []linalg.Vec3 {
		for i := 0; i+1 < len(f); i += 2 {
			f[i+1] = f[i].Scale(-1)
		}
		return f
	}
	build := func(name string, n int, start []linalg.Vec3) *traj.Trajectory {
		t := traj.New(name, nAtoms)
		cur := start
		for f := 0; f < n; f++ {
			switch kind % 5 {
			case 0:
				cur = frame(nil, 10)
			case 1:
				cur = frame(cur, 0.1)
			case 2:
				if f%3 == 0 || cur == nil {
					cur = frame(cur, 1)
				}
			case 3:
				cur = centered(frame(nil, 5))
			case 4:
				cur = frame(cur, 0.5)
			}
			t.Frames = append(t.Frames, traj.Frame{Time: float64(f), Coords: append([]linalg.Vec3(nil), cur...)})
		}
		return t
	}
	var start []linalg.Vec3
	if kind%5 == 4 {
		start = frame(nil, 10)
	}
	ens := make(traj.Ensemble, len(frames))
	for i, n := range frames {
		name := string(rune('a' + i%26))
		if i > 0 && kind%5 == 2 && frames[0] > 0 {
			first := ens[0]
			t := traj.New(name, nAtoms)
			for f := 0; f < n; f++ {
				t.Frames = append(t.Frames, traj.Frame{Time: float64(f), Coords: first.Frames[(f*(i+1))%frames[0]].Coords})
			}
			ens[i] = t
			continue
		}
		ens[i] = build(name, n, start)
	}
	return ens
}
