package psa

import (
	"testing"

	"mdtask/internal/blockstore"
	"mdtask/internal/engine"
	"mdtask/internal/traj"
)

// countingCancel fires true from the nth poll onward.
func countingCancel(n int) func() bool {
	calls := 0
	return func() bool {
		calls++
		return calls >= n
	}
}

func TestBlockKeyPositionIndependent(t *testing.T) {
	ens := testEnsemble(4, 6, 3)
	refs := traj.RefsOf(ens)
	// The same trajectory pair reached through different schedule
	// coordinates shares one key: block (2,3) of the 4-ensemble equals
	// block (0,1) of the sub-ensemble holding those two trajectories.
	k1, err := BlockKey(refs, Block{I0: 2, I1: 3, J0: 3, J1: 4}, true)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := BlockKey(refs[2:4], Block{I0: 0, I1: 1, J0: 1, J1: 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("same trajectory pair keyed differently at different schedule positions")
	}
	// Different trajectories must not collide.
	k3, err := BlockKey(refs, Block{I0: 1, I1: 2, J0: 3, J1: 4}, true)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k3 {
		t.Error("distinct trajectory pairs collided")
	}
	// A symmetric diagonal block is triangle-packed, so it must not
	// share a key with the full-rect layout of the same coordinates.
	d1, err := BlockKey(refs, Block{I0: 0, I1: 2, J0: 0, J1: 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := BlockKey(refs, Block{I0: 0, I1: 2, J0: 0, J1: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Error("triangular and full-rect layouts share a key")
	}
}

func TestComputeBlockRefsCachesAcrossCalls(t *testing.T) {
	refs := traj.RefsOf(testEnsemble(4, 6, 3))
	store := blockstore.New(0)
	b := Block{I0: 0, I1: 4, J0: 0, J1: 4}
	var m engine.Metrics
	opts := Opts{Symmetric: true, Cache: store, Env: engine.Env{Metrics: &m}}

	cold, err := ComputeBlockRefs(refs, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s := m.Snapshot(); s.BlockCacheHits != 0 || s.BlockCacheMisses != 1 {
		t.Fatalf("cold run accounting: hits=%d misses=%d", s.BlockCacheHits, s.BlockCacheMisses)
	}
	pairsCold := m.Snapshot().PairsEvaluated
	if pairsCold == 0 {
		t.Fatal("cold run evaluated no pairs")
	}

	warm, err := ComputeBlockRefs(refs, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s := m.Snapshot(); s.BlockCacheHits != 1 || s.PairsEvaluated != pairsCold {
		t.Fatalf("warm run ran the kernel: hits=%d pairs=%d (cold pairs %d)",
			s.BlockCacheHits, s.PairsEvaluated, pairsCold)
	}
	if len(warm.Values) != len(cold.Values) {
		t.Fatalf("warm block shape %d, want %d", len(warm.Values), len(cold.Values))
	}
	for i := range cold.Values {
		if warm.Values[i] != cold.Values[i] {
			t.Fatalf("value %d differs: %v vs %v", i, warm.Values[i], cold.Values[i])
		}
	}
}

// A block cancelled mid-kernel zero-fills its tail; that partial value
// must never become observable under the block's content address — the
// next computation of the same block runs fresh and stores the full
// result.
func TestCancelledBlockNeverRecorded(t *testing.T) {
	refs := traj.RefsOf(testEnsemble(4, 6, 3))
	store := blockstore.New(0)
	b := Block{I0: 0, I1: 4, J0: 0, J1: 4} // 6 triangle-packed pairs

	partial, err := ComputeBlockRefs(refs, b, Opts{
		Symmetric: true,
		Cache:     store,
		Env:       engine.Env{Cancel: countingCancel(3)}, // cancel after two pairs
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(partial.Values); n != b.TaskPairs(true) {
		t.Fatalf("cancelled block shape %d, want %d", n, b.TaskPairs(true))
	}
	if last := partial.Values[len(partial.Values)-1]; last != 0 {
		t.Fatalf("cancelled block tail = %v, want zero-filled", last)
	}
	if store.Len() != 0 {
		t.Fatalf("cancelled block recorded: %d entries", store.Len())
	}

	full, err := ComputeBlockRefs(refs, b, Opts{Symmetric: true, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if full.Values[len(full.Values)-1] == 0 {
		t.Fatal("recompute after cancel returned a zero tail (poisoned entry?)")
	}
	if store.Len() != 1 {
		t.Fatalf("complete block not recorded: %d entries", store.Len())
	}

	// And the stored entry now serves hits with the complete values.
	again, err := ComputeBlockRefs(refs, b, Opts{Symmetric: true, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Values {
		if again.Values[i] != full.Values[i] {
			t.Fatalf("hit value %d differs", i)
		}
	}
}
