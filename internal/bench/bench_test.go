package bench

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mdtask/internal/cluster"
	"mdtask/internal/cpptraj"
	"mdtask/internal/leaflet"
	"mdtask/internal/synth"
)

var (
	calOnce sync.Once
	calVal  *Calibration
)

// FixedCalibration returns a machine-independent calibration with
// representative values measured once on the development machine. The
// shape tests use it so their assertions do not depend on the
// measurement conditions of the machine running the tests (e.g. race
// instrumentation slows the kernels by an order of magnitude, which
// would distort the modeled compute/coordination ratios).
func FixedCalibration() *Calibration {
	return &Calibration{
		HausdorffPair: map[string]float64{
			"small":  0.187,
			"medium": 0.374,
			"large":  0.749,
		},
		CPPTrajPair: map[string]float64{
			"GNU":                      0.0886,
			"Intel -Wall -O3 (no MKL)": 0.0607,
		},
		CdistPerPair: 2.28e-9,
		CCPerOp:      9.4e-9,
		EdgesPerAtom: 5.11,
		CompIDsPerAtom: map[int]float64{
			leafletTasksPaper: 1.795,
			leafletTasks4M:    4.479,
		},
		calFrames: 20,
	}
}

// sharedCal returns the fixed reference calibration: the shape
// assertions must not depend on how fast this machine (or this build
// mode — race instrumentation slows kernels ~10x) runs the kernels.
// TestCalibrationSanity exercises the real measurement path.
func sharedCal() *Calibration {
	calOnce.Do(func() { calVal = FixedCalibration() })
	return calVal
}

func TestCalibrationSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping real calibration in -short mode")
	}
	cal := Calibrate()
	if cal.HausdorffPair["small"] <= 0 {
		t.Error("hausdorff pair cost not measured")
	}
	if cal.HausdorffPair["large"] <= cal.HausdorffPair["small"] {
		t.Error("large pairs should cost more than small")
	}
	if !(cal.CdistPerPair > 0) || math.IsInf(cal.CdistPerPair, 0) {
		t.Errorf("cdist per pair = %g not a positive finite cost", cal.CdistPerPair)
	}
	if cal.EdgesPerAtom < 3 || cal.EdgesPerAtom > 12 {
		t.Errorf("edges/atom = %v outside membrane range", cal.EdgesPerAtom)
	}
}

// The two CPPTraj kernels are calibrated on the same trajectory pair.
// Which one is faster is a property of the machine and its load, so it
// never gates: what must hold is that both were measured (finite,
// positive costs) and that they are the same computation on the
// calibration input, within the tolerance cpptraj's own tests use.
func TestCalibrationKernelGap(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping real calibration in -short mode")
	}
	cal := Calibrate()
	for _, k := range []cpptraj.Kernel{cpptraj.Naive, cpptraj.Blocked} {
		if c := cal.CPPTrajPair[k.String()]; !(c > 0) || math.IsInf(c, 0) {
			t.Errorf("%v kernel cost = %v, want a positive finite measurement", k, c)
		}
	}
	t1, t2 := calibrationPair(cal.calFrames)
	naive, err := cpptraj.Matrix2DRMS(t1, t2, cpptraj.Naive)
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := cpptraj.Matrix2DRMS(t1, t2, cpptraj.Blocked)
	if err != nil {
		t.Fatal(err)
	}
	if len(naive) != len(blocked) || len(naive) == 0 {
		t.Fatalf("kernels returned %d and %d values", len(naive), len(blocked))
	}
	for i := range naive {
		if math.Abs(naive[i]-blocked[i]) > 1e-9 {
			t.Fatalf("kernels disagree at %d: naive %v, blocked %v", i, naive[i], blocked[i])
		}
	}
}

// parse a cell like "123.4" to float; returns NaN-like failure via ok.
func cell(tb *Table, row int, col string) (float64, bool) {
	ci := -1
	for i, h := range tb.Header {
		if h == col {
			ci = i
			break
		}
	}
	if ci < 0 || row >= len(tb.Rows) {
		return 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(tb.Rows[row][ci]), 64)
	return v, err == nil
}

func findRow(tb *Table, prefix ...string) int {
	for i, row := range tb.Rows {
		match := true
		for j, p := range prefix {
			if j >= len(row) || row[j] != p {
				match = false
				break
			}
		}
		if match {
			return i
		}
	}
	return -1
}

func TestFig2Shapes(t *testing.T) {
	tb := Fig2(sharedCal())
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
	// At 4096 tasks: Dask > Spark > RP throughput, RP < 100/s.
	row := findRow(tb, "4096")
	if row < 0 {
		t.Fatal("4096-task row missing")
	}
	dask, ok1 := cell(tb, row, "Dask tasks/s")
	spark, ok2 := cell(tb, row, "Spark tasks/s")
	rp, ok3 := cell(tb, row, "RADICAL-Pilot tasks/s")
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("cells missing in row %v", tb.Rows[row])
	}
	if !(dask > spark && spark > rp) {
		t.Errorf("ordering: dask=%v spark=%v rp=%v", dask, spark, rp)
	}
	if rp >= 100 {
		t.Errorf("RP = %v tasks/s, paper plateau is <100", rp)
	}
	if dask < 10*spark/4 {
		t.Errorf("Dask (%v) should be ~an order over Spark (%v)", dask, spark)
	}
	// RP fails at >=32k tasks.
	row = findRow(tb, "32768")
	if row < 0 || tb.Rows[row][5] != "FAIL" {
		t.Errorf("RP 32k row = %v, want FAIL", tb.Rows[row])
	}
}

func TestFig3Shapes(t *testing.T) {
	tb := Fig3(sharedCal())
	// Dask scales with nodes; RP plateaus.
	r1 := findRow(tb, "wrangler", "1")
	r4 := findRow(tb, "wrangler", "4")
	d1, _ := cell(tb, r1, "Dask tasks/s")
	d4, _ := cell(tb, r4, "Dask tasks/s")
	if d4 < 2.5*d1 {
		t.Errorf("Dask not scaling: %v -> %v", d1, d4)
	}
	p1, _ := cell(tb, r1, "RADICAL-Pilot tasks/s")
	p4, _ := cell(tb, r4, "RADICAL-Pilot tasks/s")
	if p4 > 1.2*p1 {
		t.Errorf("RP should plateau: %v -> %v", p1, p4)
	}
}

func TestFig4Shapes(t *testing.T) {
	tb := Fig4(sharedCal())
	// 18 rows: 2 traj counts x 3 sizes x 3 core points.
	if len(tb.Rows) != 18 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// MPI <= all frameworks on every row; scaling ~4-10x from 16->256.
	for _, size := range []string{"small", "medium", "large"} {
		lo := findRow(tb, "128", size, "16/1")
		hi := findRow(tb, "128", size, "256/8")
		mpiLo, _ := cell(tb, lo, "MPI4py")
		mpiHi, _ := cell(tb, hi, "MPI4py")
		scale := mpiLo / mpiHi
		if scale < 4 || scale > 12 {
			t.Errorf("%s: MPI 16->256 scaling = %.1fx, want ~6x", size, scale)
		}
		for _, fw := range []string{"Spark", "Dask", "RADICAL-Pilot"} {
			v, ok := cell(tb, lo, fw)
			if !ok {
				t.Fatalf("missing %s", fw)
			}
			if v < mpiLo {
				t.Errorf("%s at 16 cores (%v) beats MPI (%v)", fw, v, mpiLo)
			}
			if v > 2*mpiLo {
				t.Errorf("%s at 16 cores (%v) not within 2x of MPI (%v)", fw, v, mpiLo)
			}
		}
	}
}

func TestFig5Shapes(t *testing.T) {
	tb := Fig5(sharedCal())
	// Wrangler speedup at 256 cores must be below Comet's.
	cometRow := findRow(tb, "comet", "256/16")
	wranglerRow := findRow(tb, "wrangler", "256/8")
	cs, ok1 := cell(tb, cometRow, "MPI4py speedup")
	ws, ok2 := cell(tb, wranglerRow, "MPI4py speedup")
	if !ok1 || !ok2 {
		t.Fatal("speedup cells missing")
	}
	if ws >= cs {
		t.Errorf("Wrangler speedup %v >= Comet %v; paper says lower", ws, cs)
	}
}

func TestFig6Shapes(t *testing.T) {
	tb := Fig6(sharedCal())
	// Optimized kernel faster in absolute time at 1 core.
	r0 := findRow(tb, "1")
	gnu, _ := cell(tb, r0, "GNU time(s)")
	intel, _ := cell(tb, r0, "Intel -Wall -O3 (no MKL) time(s)")
	if intel >= gnu {
		t.Errorf("optimized kernel (%v) not faster than naive (%v)", intel, gnu)
	}
	// Substantial scaling at 240 cores.
	last := findRow(tb, "240")
	sp, _ := cell(tb, last, "GNU speedup")
	if sp < 30 {
		t.Errorf("GNU speedup at 240 cores = %v, want >>1", sp)
	}
}

func TestFig7FailurePattern(t *testing.T) {
	tb := Fig7(sharedCal())
	get := func(approach leaflet.Approach, atoms, cores string, col string) string {
		row := findRow(tb, approach.String(), atoms, cores)
		if row < 0 {
			t.Fatalf("row %v/%s/%s missing", approach, atoms, cores)
		}
		for i, h := range tb.Header {
			if h == col {
				return tb.Rows[row][i]
			}
		}
		t.Fatalf("column %s missing", col)
		return ""
	}
	// Dask Approach-1 scatter fails at 524k+ (paper §4.3.1).
	if got := get(leaflet.Broadcast1D, "524k", "32/1", "Dask"); got != "FAIL(scatter)" {
		t.Errorf("Dask 524k A1 = %q", got)
	}
	if got := get(leaflet.Broadcast1D, "262k", "32/1", "Dask"); strings.HasPrefix(got, "FAIL") {
		t.Errorf("Dask 262k A1 = %q, should run", got)
	}
	// Approach 2 cannot run 4M (cdist memory, §4.3.2).
	for _, fw := range []string{"Spark", "Dask", "MPI4py"} {
		if got := get(leaflet.TaskAPI2D, "4M", "32/1", fw); !strings.HasPrefix(got, "FAIL") {
			t.Errorf("%s 4M A2 = %q, should fail", fw, got)
		}
	}
	// Approach 3 runs 4M for Spark and MPI (42k tasks) but not Dask.
	if got := get(leaflet.ParallelCC, "4M", "32/1", "Spark"); strings.HasPrefix(got, "FAIL") {
		t.Errorf("Spark 4M A3 = %q, should run with 42k tasks", got)
	}
	if got := get(leaflet.ParallelCC, "4M", "32/1", "MPI4py"); strings.HasPrefix(got, "FAIL") {
		t.Errorf("MPI 4M A3 = %q, should run", got)
	}
	if got := get(leaflet.ParallelCC, "4M", "32/1", "Dask"); !strings.HasPrefix(got, "FAIL") {
		t.Errorf("Dask 4M A3 = %q, should fail (worker restarts)", got)
	}
	// Tree search runs everything.
	for _, atoms := range []string{"131k", "262k", "524k", "4M"} {
		for _, fw := range []string{"Spark", "Dask", "MPI4py"} {
			if got := get(leaflet.TreeSearch, atoms, "32/1", fw); strings.HasPrefix(got, "FAIL") {
				t.Errorf("%s %s A4 = %q, should run", fw, atoms, got)
			}
		}
	}
}

func TestFig7Crossover(t *testing.T) {
	tb := Fig7(sharedCal())
	val := func(approach leaflet.Approach, atoms string) float64 {
		row := findRow(tb, approach.String(), atoms, "32/1")
		v, ok := cell(tb, row, "Spark")
		if !ok {
			t.Fatalf("no Spark value for %v/%s", approach, atoms)
		}
		return v
	}
	// Brute (Approach 3) beats tree below the crossover, loses above.
	if !(val(leaflet.ParallelCC, "131k") < val(leaflet.TreeSearch, "131k")) {
		t.Error("131k: pairwise should beat tree")
	}
	if !(val(leaflet.ParallelCC, "262k") < val(leaflet.TreeSearch, "262k")) {
		t.Error("262k: pairwise should beat tree")
	}
	if !(val(leaflet.TreeSearch, "524k") < val(leaflet.ParallelCC, "524k")) {
		t.Error("524k: tree should win")
	}
	if !(val(leaflet.TreeSearch, "4M") < val(leaflet.ParallelCC, "4M")) {
		t.Error("4M: tree should win decisively")
	}
}

func TestFig8Shapes(t *testing.T) {
	tb := Fig8(sharedCal())
	row := findRow(tb, "131k", "256/8")
	daskB, _ := cell(tb, row, "Dask bcast(s)")
	daskT, _ := cell(tb, row, "Dask total(s)")
	sparkB, _ := cell(tb, row, "Spark bcast(s)")
	sparkT, _ := cell(tb, row, "Spark total(s)")
	mpiB, _ := cell(tb, row, "MPI4py bcast(s)")
	if daskB/daskT < 0.3 {
		t.Errorf("Dask broadcast share = %.2f, paper reports 40-65%%", daskB/daskT)
	}
	if sparkB/sparkT > 0.2 {
		t.Errorf("Spark broadcast share = %.2f, paper reports 3-15%%", sparkB/sparkT)
	}
	if mpiB >= sparkB {
		t.Errorf("MPI bcast (%v) should be below Spark's (%v)", mpiB, sparkB)
	}
	// MPI broadcast grows with ranks.
	lo := findRow(tb, "131k", "32/1")
	mpiLo, _ := cell(tb, lo, "MPI4py bcast(s)")
	if mpiB <= mpiLo {
		t.Errorf("MPI bcast flat: %v -> %v", mpiLo, mpiB)
	}
}

func TestFig9Shapes(t *testing.T) {
	tb := Fig9(sharedCal())
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Overhead-dominated: 131k and 524k runtimes within 2x at 32 cores.
	small, _ := cell(tb, 0, "131k")
	big, _ := cell(tb, 0, "524k")
	if big > 2*small {
		t.Errorf("sizes should run in similar times (%v vs %v)", small, big)
	}
	// Strong improvement from 32 to 256 cores.
	small256, _ := cell(tb, 3, "131k")
	if small/small256 < 3 {
		t.Errorf("RP improved only %.1fx from 32->256 cores", small/small256)
	}
}

func TestTab2Measured(t *testing.T) {
	tb := Tab2(sharedCal())
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if strings.HasPrefix(row[len(row)-1], "ERR") {
			t.Errorf("row failed: %v", row)
		}
	}
}

func TestTab1AndTab3Render(t *testing.T) {
	for _, tb := range []*Table{Tab1(sharedCal()), Tab3(sharedCal())} {
		var buf bytes.Buffer
		if err := tb.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Error("empty render")
		}
	}
}

func TestRecommend(t *testing.T) {
	for _, c := range []struct {
		needs []string
		want  string
	}{
		// Throughput-oriented: Dask (Table 3: ++ vs + vs -).
		{[]string{"Low Latency", "Throughput"}, "Dask"},
		// Shuffle/broadcast/caching-heavy: Spark.
		{[]string{"Shuffle", "Broadcast", "Caching"}, "Spark"},
		// HPC/MPI tasks with native code: RADICAL-Pilot.
		{[]string{"MPI/HPC Tasks", "Python/native Code"}, "RADICAL-Pilot"},
	} {
		if got, _ := recommend(c.needs...); got != c.want {
			t.Errorf("recommend(%q) = %s, want %s", c.needs, got, c.want)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{ID: "x", Title: "t", Header: []string{"a", "b"}}
	tb.AddRow(1, "two")
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,two\n"
	if buf.String() != want {
		t.Errorf("CSV = %q", buf.String())
	}
}

func TestRegistryLookup(t *testing.T) {
	for _, e := range Registry {
		got, err := Lookup(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("Lookup(%s) = %v, %v", e.ID, got.ID, err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestCompIDsCached(t *testing.T) {
	cal := sharedCal()
	v1 := cal.CompIDs(64)
	v2 := cal.CompIDs(64)
	if v1 != v2 || v1 <= 0 {
		t.Errorf("CompIDs = %v, %v", v1, v2)
	}
}

func TestLeafletWorkloadPhases(t *testing.T) {
	cal := sharedCal()
	for _, a := range leaflet.Approaches {
		w := leafletWorkload(cal, a, synth.M131k.NAtoms, 128, cluster.Spark, false)
		if len(w.Phases) != 1 {
			t.Fatalf("%v: phases = %d", a, len(w.Phases))
		}
		ph := w.Phases[0]
		if len(ph.Tasks) == 0 || len(ph.Tasks) > 128 {
			t.Errorf("%v: %d tasks", a, len(ph.Tasks))
		}
		if ph.ShuffleBytes <= 0 {
			t.Errorf("%v: shuffle bytes = %d", a, ph.ShuffleBytes)
		}
		if a == leaflet.Broadcast1D && ph.BroadcastBytes == 0 {
			t.Errorf("broadcast missing")
		}
	}
}
