package core

import (
	"math"
	"testing"

	"mdtask/internal/hausdorff"
	"mdtask/internal/leaflet"
	"mdtask/internal/psa"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

func smallEnsemble() traj.Ensemble {
	ens := make(traj.Ensemble, 4)
	for i := range ens {
		ens[i] = synth.Walk("t", 6, 5, 99, uint64(i))
	}
	return ens
}

func TestPSAAllEngines(t *testing.T) {
	ens := smallEnsemble()
	want, err := psa.SerialRefs(traj.RefsOf(ens), psa.Opts{Method: hausdorff.Naive})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range Engines {
		eng := eng
		for _, full := range []bool{false, true} {
			full := full
			name := eng.String() + "/symmetric"
			if full {
				name = eng.String() + "/full"
			}
			t.Run(name, func(t *testing.T) {
				got, err := PSA(Config{Engine: eng, Parallelism: 4, FullMatrix: full}, ens, hausdorff.Naive)
				if err != nil {
					t.Fatal(err)
				}
				if got.N != want.N {
					t.Fatalf("N = %d", got.N)
				}
				for i := range want.Data {
					if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
						t.Fatalf("element %d: %v vs %v", i, got.Data[i], want.Data[i])
					}
				}
			})
		}
	}
}

func TestPSAEmptyEnsemble(t *testing.T) {
	got, err := PSA(Config{Engine: EngineDask}, nil, hausdorff.Naive)
	if err != nil || got.N != 0 {
		t.Fatalf("empty PSA = %v, %v", got, err)
	}
}

func TestLeafletFinderAllEngines(t *testing.T) {
	sys := synth.Bilayer(1500, 7)
	want := leaflet.Serial(sys.Coords, synth.BilayerCutoff)
	for _, eng := range Engines {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			approach := leaflet.TreeSearch
			if eng == EnginePilot {
				approach = leaflet.TaskAPI2D
			}
			got, err := LeafletFinder(Config{Engine: eng, Parallelism: 4, Tasks: 16},
				sys.Coords, synth.BilayerCutoff, approach)
			if err != nil {
				t.Fatal(err)
			}
			if !leaflet.Equal(got, want) {
				t.Fatal("result differs from serial")
			}
		})
	}
}

func TestLeafletFinderValidation(t *testing.T) {
	sys := synth.Bilayer(100, 1)
	if _, err := LeafletFinder(Config{}, nil, 1, leaflet.TreeSearch); err == nil {
		t.Error("empty coords accepted")
	}
	if _, err := LeafletFinder(Config{}, sys.Coords, 0, leaflet.TreeSearch); err == nil {
		t.Error("zero cutoff accepted")
	}
	if _, err := LeafletFinder(Config{Engine: EnginePilot}, sys.Coords, 1, leaflet.TreeSearch); err == nil {
		t.Error("pilot accepted a non-2D approach")
	}
	if _, err := LeafletFinder(Config{Engine: Engine(9)}, sys.Coords, 1, leaflet.TreeSearch); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestRMSDSeries(t *testing.T) {
	tr := synth.Walk("w", 10, 6, 3, 0)
	ref := tr.Frames[0].Coords
	series, err := RMSDSeries(tr, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 {
		t.Fatalf("len = %d", len(series))
	}
	if series[0] > 1e-9 {
		t.Errorf("RMSD to self = %v", series[0])
	}
	// The walk drifts, so later frames deviate more on average.
	if series[5] <= 0 {
		t.Errorf("series[5] = %v", series[5])
	}
	if _, err := RMSDSeries(tr, ref[:5]); err == nil {
		t.Error("mismatched reference accepted")
	}
}

func TestRecommend(t *testing.T) {
	// Throughput-oriented: Dask must rank first (Table 3: ++ vs + vs -).
	recs, err := Recommend(Requirements{Needs: []Criterion{LowLatency, Throughput}})
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Engine != EngineDask {
		t.Errorf("first = %v, want Dask", recs[0].Engine)
	}
	// Shuffle/broadcast/caching-heavy: Spark wins.
	recs, err = Recommend(Requirements{Needs: []Criterion{Shuffle, BroadcastCrit, Caching}})
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Engine != EngineSpark {
		t.Errorf("first = %v, want Spark", recs[0].Engine)
	}
	// HPC/MPI tasks with native code: RADICAL-Pilot wins.
	recs, err = Recommend(Requirements{Needs: []Criterion{MPIHPCTasks, PythonNative}})
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Engine != EnginePilot {
		t.Errorf("first = %v, want RADICAL-Pilot", recs[0].Engine)
	}
}

func TestRecommendUnknownCriterion(t *testing.T) {
	if _, err := Recommend(Requirements{Needs: []Criterion{"Nonsense"}}); err == nil {
		t.Error("unknown criterion accepted")
	}
}

func TestDecisionTableComplete(t *testing.T) {
	for _, c := range append(append([]Criterion{}, TaskManagementCriteria...), ApplicationCriteria...) {
		row, ok := DecisionTable[c]
		if !ok {
			t.Errorf("criterion %q missing from table", c)
			continue
		}
		for _, e := range []Engine{EnginePilot, EngineSpark, EngineDask} {
			if _, ok := row[e]; !ok {
				t.Errorf("criterion %q missing engine %v", c, e)
			}
		}
	}
}

func TestSupportStrings(t *testing.T) {
	want := map[Support]string{Unsupported: "-", Minor: "o", Supported: "+", Major: "++"}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
	if Support(9).String() != "?" {
		t.Error("unknown support string")
	}
}

func TestEngineStrings(t *testing.T) {
	for _, e := range Engines {
		if e.String() == "" {
			t.Errorf("engine %d has empty name", int(e))
		}
	}
}

func TestTable1Rows(t *testing.T) {
	if len(Table1) != 3 {
		t.Fatalf("Table1 has %d rows", len(Table1))
	}
	engines := map[Engine]bool{}
	for _, tr := range Table1 {
		engines[tr.Engine] = true
		if tr.Languages == "" || tr.Scheduler == "" {
			t.Errorf("%v traits incomplete", tr.Engine)
		}
	}
	if !engines[EnginePilot] || !engines[EngineSpark] || !engines[EngineDask] {
		t.Error("Table1 missing an engine")
	}
}

func TestOgresComplete(t *testing.T) {
	views := []OgreView{ExecutionView, DataSourceView, ProcessingView, ProblemArcheView}
	for _, o := range Ogres {
		if o.Application == "" {
			t.Error("unnamed ogre")
		}
		for _, v := range views {
			if len(o.Facets[v]) == 0 {
				t.Errorf("%s: view %q has no facets", o.Application, v)
			}
		}
	}
}

// TestFleetEngine checks the sixth engine through the public API: the
// loopback coordinator/worker fleet must match serial bit-for-bit on
// PSA and partition-for-partition on the Leaflet Finder.
func TestFleetEngine(t *testing.T) {
	ens := smallEnsemble()
	want, err := psa.SerialRefs(traj.RefsOf(ens), psa.Opts{Symmetric: true, Method: hausdorff.EarlyBreak})
	if err != nil {
		t.Fatal(err)
	}
	got, err := PSA(Config{Engine: EngineFleet, Parallelism: 2}, ens, hausdorff.EarlyBreak)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("fleet PSA differs from serial at %d", i)
		}
	}

	sys := synth.Bilayer(800, 7)
	wantLeaf := leaflet.Serial(sys.Coords, synth.BilayerCutoff)
	gotLeaf, err := LeafletFinder(Config{Engine: EngineFleet, Parallelism: 2, Tasks: 10},
		sys.Coords, synth.BilayerCutoff, leaflet.TreeSearch)
	if err != nil {
		t.Fatal(err)
	}
	if !leaflet.Equal(gotLeaf, wantLeaf) {
		t.Fatal("fleet Leaflet Finder differs from serial")
	}
	if EngineFleet.String() != "Fleet" {
		t.Errorf("EngineFleet.String() = %q", EngineFleet)
	}
}
