// Command trajgen generates synthetic MD datasets: trajectory ensembles
// for PSA (as .mdt files) and bilayer membranes for the Leaflet Finder
// (as single-frame .mdt files).
//
// Usage:
//
//	trajgen -kind ensemble -size small -n 8 -out data/
//	trajgen -kind membrane -atoms 131072 -out data/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"mdtask/internal/obs"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

func main() {
	var (
		kind    = flag.String("kind", "ensemble", "what to generate: ensemble | membrane")
		size    = flag.String("size", "small", "ensemble preset: small | medium | large")
		n       = flag.Int("n", 4, "number of trajectories (ensemble)")
		atoms   = flag.Int("atoms", 131072, "atom count (membrane; overrides the ensemble preset when -frames is also set)")
		frames  = flag.Int("frames", 0, "frames per trajectory (with -atoms, overrides the ensemble preset; 0: preset)")
		seed    = flag.Uint64("seed", 42, "generator seed")
		out     = flag.String("out", ".", "output directory")
		version = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("trajgen", obs.Version())
		return
	}
	atomsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "atoms" {
			atomsSet = true
		}
	})
	if err := run(*kind, *size, *n, *atoms, *frames, atomsSet, *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "trajgen:", err)
		os.Exit(1)
	}
}

func run(kind, size string, n, atoms, frames int, atomsSet bool, seed uint64, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	switch kind {
	case "ensemble":
		var ens traj.Ensemble
		if frames > 0 {
			// Explicit dimensions (e.g. ensembles sized to exceed a memory
			// budget for the streaming smoke test) instead of a preset.
			// -atoms must be given explicitly: its flag default is the
			// membrane scale (131072), which would silently make each
			// trajectory hundreds of MB here.
			if !atomsSet {
				return fmt.Errorf("-frames for an ensemble requires an explicit -atoms")
			}
			ens = make(traj.Ensemble, n)
			for i := range ens {
				ens[i] = synth.Walk(fmt.Sprintf("walk-%03d", i), atoms, frames, seed, uint64(i))
			}
		} else {
			var preset synth.EnsemblePreset
			switch size {
			case "small":
				preset = synth.Small
			case "medium":
				preset = synth.Medium
			case "large":
				preset = synth.Large
			default:
				return fmt.Errorf("unknown size %q (want small|medium|large)", size)
			}
			ens = synth.Ensemble(preset, n, seed)
		}
		for _, t := range ens {
			path := filepath.Join(out, t.Name+".mdt")
			if err := traj.WriteMDTFile(path, t, 4); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d atoms, %d frames)\n", path, t.NAtoms, t.NFrames())
		}
		return nil
	case "membrane":
		sys := synth.Bilayer(atoms, seed)
		t := &traj.Trajectory{Name: fmt.Sprintf("membrane-%d", atoms), NAtoms: len(sys.Coords),
			Coords: sys.Coords, Times: []float64{0}}
		path := filepath.Join(out, t.Name+".mdt")
		if err := traj.WriteMDTFile(path, t, 4); err != nil {
			return err
		}
		lo, hi := sys.CountLeaflets()
		fmt.Printf("wrote %s (%d atoms: leaflets %d/%d, cutoff %.1f)\n",
			path, len(sys.Coords), lo, hi, synth.BilayerCutoff)
		return nil
	default:
		return fmt.Errorf("unknown kind %q (want ensemble|membrane)", kind)
	}
}
