package linalg

import (
	"math/rand/v2"
	"testing"
)

// pairsWithin scans all pairs (i, j) with a[i] within cutoff of b[j]
// and returns them as index pairs: the cross-product reference
// PairsWithinSelf is checked against.
func pairsWithin(a, b []Vec3, cutoff float64) [][2]int32 {
	c2 := cutoff * cutoff
	var out [][2]int32
	for i, p := range a {
		for j, q := range b {
			if Dist2(p, q) <= c2 {
				out = append(out, [2]int32{int32(i), int32(j)})
			}
		}
	}
	return out
}

// The cross-product reference agrees with cdist's distances.
func TestPairsWithinMatchesCdist(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	a := randFrame(r, 40)
	b := randFrame(r, 30)
	const cutoff = 1.5
	pairs := pairsWithin(a, b, cutoff)
	seen := make(map[[2]int32]bool)
	for _, p := range pairs {
		seen[p] = true
	}
	for i := range a {
		for j := range b {
			within := Dist(a[i], b[j]) <= cutoff
			if within != seen[[2]int32{int32(i), int32(j)}] {
				t.Fatalf("pair (%d,%d): within=%v but listed=%v", i, j, within, !within)
			}
		}
	}
}

func TestPairsWithinSelf(t *testing.T) {
	pts := []Vec3{{0, 0, 0}, {1, 0, 0}, {10, 0, 0}, {1.5, 0, 0}}
	pairs := PairsWithinSelf(pts, 1.0)
	want := map[[2]int32]bool{{0, 1}: true, {1, 3}: true}
	if len(pairs) != len(want) {
		t.Fatalf("got %d pairs %v, want %d", len(pairs), pairs, len(want))
	}
	for _, p := range pairs {
		if !want[p] {
			t.Errorf("unexpected pair %v", p)
		}
		if p[0] >= p[1] {
			t.Errorf("pair %v not ordered i<j", p)
		}
	}
}

func TestPairsWithinSelfMatchesCross(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	pts := randFrame(r, 50)
	const cutoff = 1.2
	self := PairsWithinSelf(pts, cutoff)
	cross := pairsWithin(pts, pts, cutoff)
	// The cross version includes (i,i) and both orders; filter to i<j.
	var filtered [][2]int32
	for _, p := range cross {
		if p[0] < p[1] {
			filtered = append(filtered, p)
		}
	}
	if len(self) != len(filtered) {
		t.Fatalf("self %d pairs vs cross-filtered %d", len(self), len(filtered))
	}
	for i := range self {
		if self[i] != filtered[i] {
			t.Fatalf("pair %d: %v vs %v", i, self[i], filtered[i])
		}
	}
}
