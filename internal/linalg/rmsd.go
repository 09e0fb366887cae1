package linalg

import "math"

// RMSD computes the root-mean-square deviation between two frames after
// translating both centroids to the origin and finding the optimal
// rotation (least-squares superposition) using the quaternion
// characteristic-polynomial method of Horn. This mirrors
// MDAnalysis.analysis.rms.rmsd(superposition=True).
//
// The inputs are not modified. RMSD panics if the frames have different
// lengths and returns 0 for empty frames.
func RMSD(a, b []Vec3) float64 {
	if len(a) != len(b) {
		panic("linalg: RMSD frames have different lengths")
	}
	n := len(a)
	if n == 0 {
		return 0
	}
	ca := Centroid(a)
	cb := Centroid(b)

	// Inner products and the 3x3 covariance matrix R of the centered frames.
	var ga, gb float64
	var r [3][3]float64
	for i := 0; i < n; i++ {
		p := a[i].Sub(ca)
		q := b[i].Sub(cb)
		ga += p.Norm2()
		gb += q.Norm2()
		for x := 0; x < 3; x++ {
			for y := 0; y < 3; y++ {
				r[x][y] += p[x] * q[y]
			}
		}
	}

	// Build the 4x4 key matrix K whose largest eigenvalue lambda gives
	// the optimal superposition: rmsd = sqrt((ga+gb-2*lambda)/n).
	k := [4][4]float64{
		{r[0][0] + r[1][1] + r[2][2], r[1][2] - r[2][1], r[2][0] - r[0][2], r[0][1] - r[1][0]},
		{r[1][2] - r[2][1], r[0][0] - r[1][1] - r[2][2], r[0][1] + r[1][0], r[2][0] + r[0][2]},
		{r[2][0] - r[0][2], r[0][1] + r[1][0], -r[0][0] + r[1][1] - r[2][2], r[1][2] + r[2][1]},
		{r[0][1] - r[1][0], r[2][0] + r[0][2], r[1][2] + r[2][1], -r[0][0] - r[1][1] + r[2][2]},
	}
	lambda := maxEigen4(k)
	msd := (ga + gb - 2*lambda) / float64(n)
	if msd < 0 {
		msd = 0 // guard against tiny negative values from roundoff
	}
	return math.Sqrt(msd)
}

// maxEigen4 returns the largest eigenvalue of a symmetric 4x4 matrix
// using the cyclic Jacobi rotation method.
func maxEigen4(a [4][4]float64) float64 {
	const (
		maxSweeps = 64
		eps       = 1e-14
	)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Sum of squares of off-diagonal elements.
		var off float64
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				off += a[i][j] * a[i][j]
			}
		}
		if off < eps {
			break
		}
		for p := 0; p < 4; p++ {
			for q := p + 1; q < 4; q++ {
				if math.Abs(a[p][q]) < eps/16 {
					continue
				}
				// Compute the Jacobi rotation that zeroes a[p][q].
				theta := (a[q][q] - a[p][p]) / (2 * a[p][q])
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c

				app, aqq, apq := a[p][p], a[q][q], a[p][q]
				a[p][p] = app - t*apq
				a[q][q] = aqq + t*apq
				a[p][q] = 0
				a[q][p] = 0
				for i := 0; i < 4; i++ {
					if i == p || i == q {
						continue
					}
					aip, aiq := a[i][p], a[i][q]
					a[i][p] = c*aip - s*aiq
					a[p][i] = a[i][p]
					a[i][q] = s*aip + c*aiq
					a[q][i] = a[i][q]
				}
			}
		}
	}
	best := a[0][0]
	for i := 1; i < 4; i++ {
		if a[i][i] > best {
			best = a[i][i]
		}
	}
	return best
}
