package hausdorff

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// fuzzPair builds two small adversarial trajectories (see
// synth.Adversarial for what kind and seed select).
func fuzzPair(nAtoms, na, nb int, kind uint8, seed uint64) (a, b *traj.Trajectory) {
	ens := synth.Adversarial(nAtoms, []int{na, nb}, kind, seed)
	return ens[0], ens[1]
}

// FuzzHausdorffMethodsAgree is the differential test of the exactness
// contract (docs/kernels.md): every method, in memory and streamed at
// fuzzed window sizes — 1, non-dividing, larger than the trajectory —
// from memory-backed and .mdt-backed refs at both precisions, returns
// the bits the reference (refDirected, Algorithm 1 over frame views)
// returns on the same loaded data, and accounts every directed frame
// pair exactly once.
func FuzzHausdorffMethodsAgree(f *testing.F) {
	f.Add(uint8(4), uint8(7), uint8(5), uint8(3), uint8(1), uint64(1))   // walk, non-dividing window
	f.Add(uint8(3), uint8(6), uint8(6), uint8(1), uint8(2), uint64(7))   // duplicate frames, window 1
	f.Add(uint8(5), uint8(1), uint8(9), uint8(4), uint8(0), uint64(3))   // one frame against many
	f.Add(uint8(0), uint8(4), uint8(3), uint8(2), uint8(1), uint64(5))   // zero atoms
	f.Add(uint8(6), uint8(8), uint8(8), uint8(2), uint8(3), uint64(11))  // coincident centroids
	f.Add(uint8(2), uint8(9), uint8(4), uint8(40), uint8(4), uint64(6))  // shared start, window ≥ frames, tiny magnitude
	f.Add(uint8(7), uint8(5), uint8(11), uint8(5), uint8(0), uint64(9))  // independent frames, huge magnitude
	f.Add(uint8(1), uint8(12), uint8(12), uint8(0), uint8(1), uint64(2)) // one atom, whole-trajectory window
	// The streamed fold's probes: sides of 1, 2 and 3 frames, where the
	// last, first and middle frames coincide; windows of 1 and 2 frames,
	// which hold the probes to min(3, window).
	f.Add(uint8(3), uint8(0), uint8(0), uint8(4), uint8(1), uint64(21))
	f.Add(uint8(3), uint8(1), uint8(1), uint8(5), uint8(0), uint64(22))
	f.Add(uint8(3), uint8(2), uint8(2), uint8(2), uint8(4), uint64(23))
	f.Add(uint8(4), uint8(9), uint8(6), uint8(2), uint8(1), uint64(24))
	// Duplicate frames: every distance is zero, so every running minimum
	// ties hlo exactly once it is finite.
	f.Add(uint8(4), uint8(2), uint8(1), uint8(2), uint8(2), uint64(25))
	f.Add(uint8(5), uint8(2), uint8(2), uint8(1), uint8(2), uint64(26))
	// na ≠ nb, and the last window of each side is short.
	f.Add(uint8(4), uint8(6), uint8(11), uint8(5), uint8(1), uint64(27))
	f.Fuzz(func(t *testing.T, nAtoms, naFrames, nbFrames, window, kind uint8, seed uint64) {
		atoms := int(nAtoms) % 9
		na, nb := 1+int(naFrames)%12, 1+int(nbFrames)%12
		a, b := fuzzPair(atoms, na, nb, kind, seed)

		dir := t.TempDir()
		backings := map[string][2]*traj.Ref{"mem": {traj.MemRef(a), traj.MemRef(b)}}
		for _, prec := range []int{4, 8} {
			var refs [2]*traj.Ref
			for i, tr := range []*traj.Trajectory{a, b} {
				path := filepath.Join(dir, fmt.Sprintf("%s-%d.mdt", tr.Name, prec))
				if err := traj.WriteMDTFile(path, tr, prec); err != nil {
					t.Fatal(err)
				}
				r, err := traj.FileRef(path)
				if err != nil {
					t.Fatal(err)
				}
				refs[i] = r
			}
			backings[fmt.Sprintf("mdt%d", prec)] = refs
		}

		pairs := int64(2 * na * nb)
		constant := sameFrames(a, b)
		for name, refs := range backings {
			// The reference runs on what this backing actually holds (a
			// float32 file rounds the coordinates).
			la, err := refs[0].Load()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			lb, err := refs[1].Load()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := refDistance(la, lb)
			for _, m := range Methods {
				var c Counters
				if got := DistanceCounted(la, lb, m, &c); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s/%v in memory: %v, reference says %v", name, m, got, want)
				}
				if c.Total() != pairs {
					t.Fatalf("%s/%v in memory: counters %+v sum to %d, want %d", name, m, c, c.Total(), pairs)
				}
				for _, w := range []int{int(window) % 16, 1, max(na, nb) + 1} {
					var c Counters
					var st StreamStats
					got, err := DistanceStreamed(refs[0], refs[1], w, m, &c, &st)
					if err != nil {
						t.Fatalf("%s/%v/w=%d: %v", name, m, w, err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s/%v/w=%d streamed: %v, reference says %v", name, m, w, got, want)
					}
					if c.Total() != pairs || c.Evaluated < 0 || c.Pruned < 0 || c.Abandoned < 0 {
						t.Fatalf("%s/%v/w=%d streamed: counters %+v sum to %d, want %d", name, m, w, c, c.Total(), pairs)
					}
					if m == Naive && c.Evaluated != pairs {
						t.Fatalf("%s/naive/w=%d streamed: evaluated %d of %d pairs", name, w, c.Evaluated, pairs)
					}
					bound := int64(na + nb)
					if w >= 1 {
						bound = int64(min(w, na) + min(w, nb))
					}
					if st.PeakResidentFrames < 1 || st.PeakResidentFrames > bound {
						t.Fatalf("%s/%v/w=%d streamed: peak resident %d frames, want 1..%d", name, m, w, st.PeakResidentFrames, bound)
					}
					if st.WindowsDecoded < 2 {
						t.Fatalf("%s/%v/w=%d streamed: %d windows decoded", name, m, w, st.WindowsDecoded)
					}
					if constant && m != Naive {
						// Every distance is zero: a frame dies at its first
						// evaluation, so the probe passes leave nothing live
						// and the sweep decodes no tile. The flat kernels
						// pay exactly one evaluation per frame, bar the one
						// that kills a row and a column at once.
						if scans := int64(refs[0].NumWindows(w) + refs[1].NumWindows(w)); st.WindowsDecoded != scans {
							t.Fatalf("%s/%v/w=%d streamed, constant pair: %d windows decoded, want the probe passes' %d", name, m, w, st.WindowsDecoded, scans)
						}
						if flat := int64(2 * (na + nb - 1)); m != Indexed && (c.Evaluated != flat || c.Abandoned != 0) {
							t.Fatalf("%s/%v/w=%d streamed, constant pair: counters %+v, want %d evaluated and none abandoned", name, m, w, c, flat)
						}
					}
				}
			}
		}
	})
}

// sameFrames reports whether every frame of a and b holds the
// coordinates of a's first frame.
func sameFrames(a, b *traj.Trajectory) bool {
	ref := a.FrameCoords(0)
	for _, t := range []*traj.Trajectory{a, b} {
		for i, p := range t.Coords {
			if p != ref[i%len(ref)] {
				return false
			}
		}
	}
	return true
}
