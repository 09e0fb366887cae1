package main

import (
	"path/filepath"
	"strings"
	"testing"

	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

func TestRunGenerated(t *testing.T) {
	if err := run("", 2000, 1, "spark", "tree", synth.BilayerCutoff, 2, 16); err != nil {
		t.Fatal(err)
	}
}

func TestRunSerialEngine(t *testing.T) {
	// The registry adds a serial engine to the CLI's historical four.
	if err := run("", 2000, 1, "serial", "tree", synth.BilayerCutoff, 1, 16); err != nil {
		t.Fatal(err)
	}
}

func TestRunFromFile(t *testing.T) {
	sys := synth.Bilayer(1000, 2)
	tr := &traj.Trajectory{Name: "membrane", NAtoms: len(sys.Coords), Coords: sys.Coords, Times: []float64{0}}
	path := filepath.Join(t.TempDir(), "m.mdt")
	if err := traj.WriteMDTFile(path, tr, 8); err != nil {
		t.Fatal(err)
	}
	if err := run(path, 0, 0, "mpi", "3", synth.BilayerCutoff, 2, 8); err != nil {
		t.Fatal(err)
	}
}

// Selector flags are rejected up front, before any input is read, with
// errors that list the valid values.
func TestValidateFlags(t *testing.T) {
	if err := validateFlags("spark", "tree"); err != nil {
		t.Errorf("valid flags rejected: %v", err)
	}
	if err := validateFlags("hadoop", "tree"); err == nil {
		t.Error("bad engine passed validation")
	} else if want := "serial|spark|dask|mpi|pilot"; !strings.Contains(err.Error(), want) {
		t.Errorf("engine error %q does not list valid values %q", err, want)
	}
	if err := validateFlags("spark", "bogus"); err == nil {
		t.Error("bad approach passed validation")
	} else if want := "broadcast|task2d|parallel-cc|tree"; !strings.Contains(err.Error(), want) {
		t.Errorf("approach error %q does not list valid values %q", err, want)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", 100, 1, "bogus", "tree", 1, 1, 4); err == nil {
		t.Error("bad engine accepted")
	}
	if err := run("", 100, 1, "spark", "bogus", 1, 1, 4); err == nil {
		t.Error("bad approach accepted")
	}
	if err := run("/nonexistent/file.mdt", 0, 0, "spark", "tree", 1, 1, 4); err == nil {
		t.Error("missing file accepted")
	}
}
