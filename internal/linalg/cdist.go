package linalg

// PairsWithinSelf returns all unordered pairs (i, j), i < j, of points
// within cutoff of each other in a single point set: the brute-force
// O(n²) edge discovery the experiment harness calibrates against.
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
