package psa

import (
	"testing"

	"mdtask/internal/graph"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// twoGroupMatrix builds a distance matrix with two well-separated
// groups: {0,1,2} at distance ~1 internally, {3,4} at ~1 internally,
// ~10 across.
func twoGroupMatrix() *Matrix {
	m := NewMatrix(5)
	set := func(i, j int, v float64) { m.Set(i, j, v); m.Set(j, i, v) }
	group := map[int]int{0: 0, 1: 0, 2: 0, 3: 1, 4: 1}
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if group[i] == group[j] {
				set(i, j, 1+0.01*float64(i+j))
			} else {
				set(i, j, 10+0.01*float64(i+j))
			}
		}
	}
	return m
}

func TestClusterTwoGroups(t *testing.T) {
	m := twoGroupMatrix()
	for _, l := range []Linkage{SingleLinkage, CompleteLinkage, AverageLinkage} {
		d, err := m.Cluster(l)
		if err != nil {
			t.Fatalf("%v: %v", l, err)
		}
		if len(d.Merges) != 4 {
			t.Fatalf("%v: %d merges", l, len(d.Merges))
		}
		labels, err := d.CutK(2)
		if err != nil {
			t.Fatal(err)
		}
		if labels[0] != labels[1] || labels[1] != labels[2] {
			t.Errorf("%v: group A split: %v", l, labels)
		}
		if labels[3] != labels[4] {
			t.Errorf("%v: group B split: %v", l, labels)
		}
		if labels[0] == labels[3] {
			t.Errorf("%v: groups merged: %v", l, labels)
		}
	}
}

func TestClusterHeightsMonotone(t *testing.T) {
	m := twoGroupMatrix()
	d, err := m.Cluster(AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(d.Merges); i++ {
		if d.Merges[i].Height < d.Merges[i-1].Height {
			t.Fatalf("heights not monotone: %v", d.Merges)
		}
	}
}

func TestCutKRange(t *testing.T) {
	m := twoGroupMatrix()
	d, _ := m.Cluster(AverageLinkage)
	for k := 1; k <= 5; k++ {
		labels, err := d.CutK(k)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(graph.Groups(labels)); got != k {
			t.Errorf("CutK(%d): %d clusters", k, got)
		}
	}
	if _, err := d.CutK(0); err == nil {
		t.Error("CutK(0) accepted")
	}
	if _, err := d.CutK(6); err == nil {
		t.Error("CutK(6) accepted")
	}
}

func TestClusterValidation(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 1, 1) // asymmetric
	if _, err := m.Cluster(SingleLinkage); err == nil {
		t.Error("asymmetric matrix accepted")
	}
	m2 := NewMatrix(2)
	m2.Set(0, 0, 1)
	if _, err := m2.Cluster(SingleLinkage); err == nil {
		t.Error("nonzero diagonal accepted")
	}
	empty := NewMatrix(0)
	if _, err := empty.Cluster(SingleLinkage); err != nil {
		t.Error("empty matrix rejected")
	}
}

func TestClusterOnRealPSAMatrix(t *testing.T) {
	// Two ensembles generated from different seeds form two families;
	// clustering the real PSA matrix must separate them. Trajectories
	// within a family share a start configuration (same stream) and
	// differ only by later drift.
	var ens = testEnsemble(4, 8, 6)
	// Family B: copies of a distinct fifth walk (fresh stream) with tiny
	// perturbations; the generator is deterministic, so each call makes
	// a fresh copy.
	for i := 0; i < 3; i++ {
		c := synth.Walk("base", 8, 6, 77, 10)
		for f := range c.Frames {
			for a := range c.Frames[f].Coords {
				c.Frames[f].Coords[a][0] += 0.001 * float64(i)
			}
		}
		ens = append(ens, c)
	}
	m, err := SerialRefs(traj.RefsOf(ens), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.Cluster(AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := d.CutK(5) // 4 singleton-ish walks + 1 clone family
	if err != nil {
		t.Fatal(err)
	}
	// The three clones (indices 4,5,6) must share a cluster.
	if labels[4] != labels[5] || labels[5] != labels[6] {
		t.Errorf("clone family split: %v", labels)
	}
}

func TestLinkageStrings(t *testing.T) {
	if SingleLinkage.String() != "single" || CompleteLinkage.String() != "complete" ||
		AverageLinkage.String() != "average" || Linkage(9).String() != "unknown" {
		t.Error("linkage names wrong")
	}
}
