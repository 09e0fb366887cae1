package stage_test

import (
	"testing"

	"mdtask/internal/blockstore"
	"mdtask/internal/engine"
	"mdtask/internal/psa"
	"mdtask/internal/stage"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

func walkRefs(n int) traj.RefEnsemble {
	ens := make(traj.Ensemble, n)
	for i := range ens {
		ens[i] = synth.Walk("t", 3, 4, 9, uint64(i))
	}
	return traj.RefsOf(ens)
}

// A PSA plan partitions as psa.Run does, so it refuses the same group
// sizes.
func TestPSAPlanRejectsBadGroupSize(t *testing.T) {
	for _, sym := range []bool{false, true} {
		if _, err := stage.PSA(walkRefs(4), 3, psa.Opts{Symmetric: sym}); err == nil {
			t.Errorf("non-divisor group size accepted (sym=%v)", sym)
		}
	}
}

// Start serves every unit whose stored value passes the unit's check
// and runs the rest: a stored block of the wrong length is a miss.
// A PSA plan refuses an ensemble whose members disagree on atom count,
// as psa.Run does: its units would pair rows of different lengths.
func TestPSAPlanRejectsMixedAtomCounts(t *testing.T) {
	refs := append(walkRefs(1), traj.MemRef(synth.Walk("t", 4, 4, 9, 1)))
	if _, err := stage.PSA(refs, 2, psa.Opts{Symmetric: true}); err == nil {
		t.Error("members of 3 and 4 atoms accepted")
	}
}

func TestStartServesStoredUnits(t *testing.T) {
	store := blockstore.New(1 << 20)
	refs := walkRefs(4)
	plan, err := stage.PSA(refs, 2, psa.Opts{Symmetric: true, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	units := plan.Units()
	blocks, _ := psa.Partition(len(refs), 2, true)
	good, err := psa.ComputeBlockRefs(refs, blocks[1], psa.Opts{Symmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	store.Put(units[1].Key, good.Values, int64(len(good.Values))*8)
	store.Put(units[2].Key, []float64{1, 2}, 16) // one pair: a wrong length
	var m engine.Metrics
	run := stage.Start(plan, store, &m)
	if got := run.Missing(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("missing units %v, want [0 2]", got)
	}
	if s := m.Snapshot(); s.BlockCacheHits != 1 || s.BlockCacheMisses != 2 || s.BlockCacheBytesSaved != int64(len(good.Values))*8 {
		t.Fatalf("cache accounting %+v", s)
	}
}

// A plan serves only the blobs its units read.
func TestPlansRefuseForeignBlobs(t *testing.T) {
	psaPlan, err := stage.PSA(walkRefs(2), 1, psa.Opts{MaxResidentFrames: 3})
	if err != nil {
		t.Fatal(err)
	}
	lfPlan, err := stage.Leaflet(synth.Bilayer(64, 1).Coords, synth.BilayerCutoff, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []stage.Plan{psaPlan, lfPlan} {
		read := make(map[string]bool)
		for _, u := range plan.Units() {
			for _, name := range u.Inputs {
				read[name] = true
				if _, err := plan.Blob(name); err != nil {
					t.Fatalf("input %s: %v", name, err)
				}
			}
		}
		for _, other := range []stage.Plan{psaPlan, lfPlan} {
			if other == plan {
				continue
			}
			for _, u := range other.Units() {
				for _, name := range u.Inputs {
					if _, err := plan.Blob(name); err == nil && !read[name] {
						t.Fatalf("plan serves %s, which none of its units reads", name)
					}
				}
			}
		}
		for _, name := range []string{"", "../input", "traj-0002-w00000.mdt", "traj-0000-w00002.mdt", "traj-0-w0.mdt", "atoms-0-65.bin", "atoms-5-4.bin"} {
			if _, err := plan.Blob(name); err == nil {
				t.Fatalf("plan serves %q", name)
			}
		}
	}
}
