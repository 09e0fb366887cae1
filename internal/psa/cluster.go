package psa

import (
	"fmt"
	"math"

	"mdtask/internal/graph"
)

// Hierarchical clustering of trajectories from the PSA distance matrix:
// the downstream step the paper names as PSA's purpose ("cluster the
// trajectories based on their distance matrix", §2.1.1, following
// Seyler et al.'s Path Similarity Analysis method).

// Linkage selects how inter-cluster distances are updated when merging.
type Linkage int

const (
	// SingleLinkage merges on the minimum pairwise distance.
	SingleLinkage Linkage = iota
	// CompleteLinkage merges on the maximum pairwise distance.
	CompleteLinkage
	// AverageLinkage merges on the unweighted average distance (UPGMA).
	AverageLinkage
)

// String returns the linkage name.
func (l Linkage) String() string {
	switch l {
	case SingleLinkage:
		return "single"
	case CompleteLinkage:
		return "complete"
	case AverageLinkage:
		return "average"
	default:
		return "unknown"
	}
}

// Merge records one agglomeration step of the dendrogram: clusters A
// and B (identified by their smallest member index) merged at Height.
type Merge struct {
	A, B   int
	Height float64
}

// Dendrogram is the full agglomeration history of N leaves: N-1 merges
// in non-decreasing height order (heights are monotone for the
// implemented linkages on a metric matrix).
type Dendrogram struct {
	N      int
	Merges []Merge
}

// Cluster agglomeratively clusters the matrix's N items. The matrix
// must be symmetric with a zero diagonal (as produced by the PSA
// drivers).
func (m *Matrix) Cluster(linkage Linkage) (*Dendrogram, error) {
	n := m.N
	if n == 0 {
		return &Dendrogram{}, nil
	}
	for i := 0; i < n; i++ {
		if m.At(i, i) != 0 {
			return nil, fmt.Errorf("psa: Cluster: nonzero diagonal at %d", i)
		}
		for j := i + 1; j < n; j++ {
			if m.At(i, j) != m.At(j, i) {
				return nil, fmt.Errorf("psa: Cluster: asymmetric at (%d,%d)", i, j)
			}
		}
	}

	// Working distance matrix between active clusters, identified by
	// their smallest member; size[] tracks member counts for UPGMA.
	dist := make([]float64, n*n)
	copy(dist, m.Data)
	active := make([]int, n)
	size := make([]int, n)
	for i := range active {
		active[i] = i
		size[i] = 1
	}
	d := &Dendrogram{N: n}

	for len(active) > 1 {
		// Find the closest active pair.
		bi, bj := 0, 1
		best := math.Inf(1)
		for x := 0; x < len(active); x++ {
			for y := x + 1; y < len(active); y++ {
				a, b := active[x], active[y]
				if dv := dist[a*n+b]; dv < best {
					best, bi, bj = dv, x, y
				}
			}
		}
		a, b := active[bi], active[bj] // a < b by construction order
		if b < a {
			a, b = b, a
		}
		d.Merges = append(d.Merges, Merge{A: a, B: b, Height: best})

		// Update distances from the merged cluster (kept under id a).
		for _, c := range active {
			if c == a || c == b {
				continue
			}
			da, db := dist[a*n+c], dist[b*n+c]
			var nd float64
			switch linkage {
			case SingleLinkage:
				nd = math.Min(da, db)
			case CompleteLinkage:
				nd = math.Max(da, db)
			case AverageLinkage:
				nd = (float64(da*float64(size[a])) + float64(db*float64(size[b]))) /
					float64(size[a]+size[b])
			default:
				return nil, fmt.Errorf("psa: unknown linkage %d", int(linkage))
			}
			dist[a*n+c], dist[c*n+a] = nd, nd
		}
		size[a] += size[b]
		// Deactivate b.
		out := active[:0]
		for _, c := range active {
			if c != b {
				out = append(out, c)
			}
		}
		active = out
	}
	return d, nil
}

// CutK cuts the dendrogram into exactly k clusters (1 <= k <= N) by
// applying the first N-k merges. Labels are canonical (smallest member
// index), as graph.UnionFind.Labels makes them.
func (d *Dendrogram) CutK(k int) ([]int32, error) {
	if k < 1 || k > d.N {
		return nil, fmt.Errorf("psa: CutK(%d) out of range [1,%d]", k, d.N)
	}
	uf := graph.NewUnionFind(d.N)
	for _, mg := range d.Merges[:d.N-k] {
		uf.Union(int32(mg.A), int32(mg.B))
	}
	return uf.Labels(), nil
}
