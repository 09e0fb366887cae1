package psa

import (
	"math"
	"testing"

	"mdtask/internal/hausdorff"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

func testEnsemble(n, atoms, frames int) traj.Ensemble {
	ens := make(traj.Ensemble, n)
	for i := range ens {
		ens[i] = synth.Walk("t", atoms, frames, 77, uint64(i))
	}
	return ens
}

func TestPartition2DCoversAllPairs(t *testing.T) {
	for _, tc := range []struct{ n, n1 int }{{8, 2}, {8, 4}, {8, 8}, {6, 1}, {12, 3}} {
		blocks, err := Partition2D(tc.n, tc.n1)
		if err != nil {
			t.Fatal(err)
		}
		k := tc.n / tc.n1
		if len(blocks) != k*k {
			t.Fatalf("n=%d n1=%d: %d blocks, want %d", tc.n, tc.n1, len(blocks), k*k)
		}
		covered := make([][]int, tc.n)
		for i := range covered {
			covered[i] = make([]int, tc.n)
		}
		for _, b := range blocks {
			for i := b.I0; i < b.I1; i++ {
				for j := b.J0; j < b.J1; j++ {
					covered[i][j]++
				}
			}
		}
		for i := range covered {
			for j := range covered[i] {
				if covered[i][j] != 1 {
					t.Fatalf("pair (%d,%d) covered %d times", i, j, covered[i][j])
				}
			}
		}
	}
}

func TestPartition2DRejectsBadGroupSize(t *testing.T) {
	for _, n1 := range []int{0, -1, 3, 5} {
		if _, err := Partition2D(8, n1); err == nil {
			t.Errorf("n1=%d accepted for N=8", n1)
		}
		if _, err := PartitionTriangular(8, n1); err == nil {
			t.Errorf("triangular: n1=%d accepted for N=8", n1)
		}
	}
}

// The triangular schedule must cover every unordered pair exactly once:
// each (i, j) with i < j appears in exactly one block's range, and no
// block lies strictly below the diagonal.
func TestPartitionTriangularCoversUpperPairs(t *testing.T) {
	for _, tc := range []struct{ n, n1 int }{{8, 2}, {8, 4}, {8, 8}, {6, 1}, {12, 3}} {
		blocks, err := PartitionTriangular(tc.n, tc.n1)
		if err != nil {
			t.Fatal(err)
		}
		k := tc.n / tc.n1
		if want := k * (k + 1) / 2; len(blocks) != want {
			t.Fatalf("n=%d n1=%d: %d blocks, want %d", tc.n, tc.n1, len(blocks), want)
		}
		covered := make(map[[2]int]int)
		for _, b := range blocks {
			if b.J0 < b.I0 {
				t.Fatalf("block %+v lies below the diagonal", b)
			}
			for i := b.I0; i < b.I1; i++ {
				j0 := b.J0
				if b.Diagonal() {
					j0 = i + 1
				}
				for j := j0; j < b.J1; j++ {
					covered[[2]int{i, j}]++
				}
			}
		}
		for i := 0; i < tc.n; i++ {
			for j := i + 1; j < tc.n; j++ {
				if covered[[2]int{i, j}] != 1 {
					t.Fatalf("pair (%d,%d) covered %d times", i, j, covered[[2]int{i, j}])
				}
			}
		}
	}
}

// The symmetric schedule does k(k+1)/2 − k·n1-ish of the full grid's k²
// kernel evaluations: just over half the work, approaching exactly half
// as N grows.
func TestTaskPairsSymmetricHalvesWork(t *testing.T) {
	const n, n1 = 24, 4
	full, err := Partition2D(n, n1)
	if err != nil {
		t.Fatal(err)
	}
	tri, err := PartitionTriangular(n, n1)
	if err != nil {
		t.Fatal(err)
	}
	fullPairs, triPairs := 0, 0
	for _, b := range full {
		fullPairs += b.TaskPairs(false)
	}
	for _, b := range tri {
		triPairs += b.TaskPairs(true)
	}
	if fullPairs != n*n {
		t.Fatalf("full schedule evaluates %d pairs, want %d", fullPairs, n*n)
	}
	if want := n * (n - 1) / 2; triPairs != want {
		t.Fatalf("symmetric schedule evaluates %d pairs, want %d", triPairs, want)
	}
	if ratio := float64(triPairs) / float64(fullPairs); ratio > 0.5 {
		t.Fatalf("symmetric/full pair ratio = %.3f, want <= 0.5", ratio)
	}
}

func TestDefaultGroupSize(t *testing.T) {
	// 128 trajectories, 16 tasks: k=4, n1=32.
	if got := DefaultGroupSize(128, 16); got != 32 {
		t.Errorf("DefaultGroupSize(128,16) = %d, want 32", got)
	}
	// 128 trajectories, 256 tasks: k=16, n1=8.
	if got := DefaultGroupSize(128, 256); got != 8 {
		t.Errorf("DefaultGroupSize(128,256) = %d, want 8", got)
	}
	// Must always return a divisor.
	for n := 1; n <= 40; n++ {
		for w := 1; w <= 40; w++ {
			n1 := DefaultGroupSize(n, w)
			if n1 < 1 || n%n1 != 0 {
				t.Fatalf("DefaultGroupSize(%d,%d) = %d not a divisor", n, w, n1)
			}
		}
	}
}

// computeBlock runs one block over memory-backed refs, which cannot
// fail to stream.
func computeBlock(t *testing.T, ens traj.Ensemble, b Block, opts Opts) BlockResult {
	t.Helper()
	r, err := ComputeBlockRefs(traj.RefsOf(ens), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSerialProperties(t *testing.T) {
	ens := testEnsemble(5, 6, 4)
	m, err := SerialRefs(traj.RefsOf(ens), Opts{Method: hausdorff.Naive})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.N; i++ {
		if m.At(i, i) != 0 {
			t.Errorf("diagonal (%d,%d) = %v", i, i, m.At(i, i))
		}
		for j := 0; j < m.N; j++ {
			if m.At(i, j) != m.At(j, i) {
				t.Errorf("asymmetric at (%d,%d)", i, j)
			}
			if i != j && m.At(i, j) <= 0 {
				t.Errorf("non-positive off-diagonal at (%d,%d)", i, j)
			}
		}
	}
}

func TestComputeBlockAndAssemble(t *testing.T) {
	ens := testEnsemble(4, 5, 3)
	want, _ := SerialRefs(traj.RefsOf(ens), Opts{Method: hausdorff.Naive})
	blocks, err := Partition2D(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]BlockResult, len(blocks))
	for i, b := range blocks {
		results[i] = computeBlock(t, ens, b, Opts{Method: hausdorff.Naive})
		if len(results[i].Values) != b.Pairs() {
			t.Fatalf("block %d: %d values, want %d", i, len(results[i].Values), b.Pairs())
		}
	}
	got := Assemble(4, results)
	if !matricesEqual(got, want, 0) {
		t.Fatal("assembled matrix != serial")
	}
}

// ComputeBlockRefs and Assemble must handle blocks of any shape: ragged
// (non-square) blocks, 1×1 blocks, and diagonal blocks (I0==J0) under
// both schedules — including 1×1 diagonal blocks, whose symmetric
// result is empty (the self-distance is implied zero).
func TestComputeBlockShapes(t *testing.T) {
	ens := testEnsemble(5, 4, 3)
	want, _ := SerialRefs(traj.RefsOf(ens), Opts{Method: hausdorff.Naive})
	for _, sym := range []bool{false, true} {
		opts := Opts{Symmetric: sym, Method: hausdorff.Naive}
		for _, b := range []Block{
			{I0: 0, I1: 3, J0: 3, J1: 5}, // ragged 3×2 off-diagonal
			{I0: 1, I1: 2, J0: 4, J1: 5}, // 1×1 off-diagonal
			{I0: 1, I1: 4, J0: 1, J1: 4}, // 3×3 diagonal
			{I0: 2, I1: 3, J0: 2, J1: 3}, // 1×1 diagonal
		} {
			r := computeBlock(t, ens, b, opts)
			if len(r.Values) != b.TaskPairs(sym) {
				t.Fatalf("sym=%v block %+v: %d values, want %d", sym, b, len(r.Values), b.TaskPairs(sym))
			}
			got := Assemble(5, []BlockResult{r})
			for i := b.I0; i < b.I1; i++ {
				for j := b.J0; j < b.J1; j++ {
					if i == j {
						continue // symmetric diagonal blocks imply the zero
					}
					if got.At(i, j) != want.At(i, j) {
						t.Fatalf("sym=%v block %+v: (%d,%d) = %v, want %v",
							sym, b, i, j, got.At(i, j), want.At(i, j))
					}
					if sym && got.At(j, i) != want.At(j, i) {
						t.Fatalf("sym=%v block %+v: mirror (%d,%d) not assembled", sym, b, j, i)
					}
				}
			}
		}
	}
}

// Property test: for several (n, n1) pairs and both schedules,
// assembling the partition's computed blocks reproduces Serial exactly.
func TestAssemblePartitionEqualsSerial(t *testing.T) {
	for _, tc := range []struct{ n, n1 int }{{4, 1}, {4, 2}, {6, 3}, {6, 6}, {8, 2}, {9, 3}} {
		ens := testEnsemble(tc.n, 4, 3)
		want, err := SerialRefs(traj.RefsOf(ens), Opts{Method: hausdorff.Naive})
		if err != nil {
			t.Fatal(err)
		}
		for _, sym := range []bool{false, true} {
			opts := Opts{Symmetric: sym, Method: hausdorff.Naive}
			blocks, err := Partition(tc.n, tc.n1, sym)
			if err != nil {
				t.Fatal(err)
			}
			results := make([]BlockResult, len(blocks))
			for i, b := range blocks {
				results[i] = computeBlock(t, ens, b, opts)
			}
			if got := Assemble(tc.n, results); !matricesEqual(got, want, 0) {
				t.Fatalf("n=%d n1=%d sym=%v: assembled matrix != serial", tc.n, tc.n1, sym)
			}
		}
	}
}

// Symmetric Serial must be bit-identical to the full scan, not just
// close: the Hausdorff distance is exactly symmetric and the diagonal
// exactly zero.
func TestSerialSymmetricBitIdentical(t *testing.T) {
	ens := testEnsemble(6, 5, 4)
	for _, m := range []hausdorff.Method{hausdorff.Naive, hausdorff.EarlyBreak} {
		full, err := SerialRefs(traj.RefsOf(ens), Opts{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		sym, err := SerialRefs(traj.RefsOf(ens), Opts{Symmetric: true, Method: m})
		if err != nil {
			t.Fatal(err)
		}
		if !matricesEqual(sym, full, 0) {
			t.Fatalf("method %v: symmetric serial differs from full", m)
		}
	}
}

func matricesEqual(a, b *Matrix, tol float64) bool {
	if a.N != b.N {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestSerialRejectsInvalidEnsemble(t *testing.T) {
	if _, err := SerialRefs(traj.RefEnsemble{nil}, Opts{Method: hausdorff.Naive}); err == nil {
		t.Fatal("nil member accepted")
	}
}
