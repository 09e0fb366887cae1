package linalg

// PairsWithin scans all pairs (i, j) with a[i] within cutoff of b[j] and
// returns them as index pairs. This is the brute-force O(n*m) edge
// discovery used by Leaflet Finder approaches 1-3.
func PairsWithin(a, b []Vec3, cutoff float64) [][2]int32 {
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

// PairsWithinSelf returns all unordered pairs (i, j), i < j, of points
// within cutoff of each other in a single point set.
func PairsWithinSelf(pts []Vec3, cutoff float64) [][2]int32 {
	c2 := cutoff * cutoff
	var out [][2]int32
	for i := 0; i < len(pts); i++ {
		p := pts[i]
		for j := i + 1; j < len(pts); j++ {
			if Dist2(p, pts[j]) <= c2 {
				out = append(out, [2]int32{int32(i), int32(j)})
			}
		}
	}
	return out
}
