package blockstore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// Eviction is byte-budget LRU: inserting past the budget drops the
// least-recently-used entries, and a Get refreshes recency. Each entry
// is charged its payload, its key and entryOverhead.
func TestByteBudgetEvictionOrder(t *testing.T) {
	const c40 = 40 + 1 + entryOverhead // a one-letter key with a 40-byte payload
	s := New(2*c40 + 20)
	s.Put("a", "A", 40)
	s.Put("b", "B", 40)
	// Touch a so b becomes the eviction candidate.
	if _, ok := s.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	s.Put("c", "C", 40) // 3×c40 > 2×c40+20: evicts b (LRU), not a
	if _, ok := s.index["b"]; ok {
		t.Fatal("b survived eviction; want LRU order a,c retained")
	}
	if _, ok := s.Get("a"); !ok {
		t.Fatal("recently-used a was evicted")
	}
	if _, ok := s.Get("c"); !ok {
		t.Fatal("just-inserted c was evicted")
	}
	if got := s.Stats().Bytes; got != 2*c40 {
		t.Fatalf("bytes = %d, want %d", got, 2*c40)
	}
	st := s.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}

	// An entry larger than the whole budget is refused outright.
	s.Put("huge", "H", 1000)
	if _, ok := s.index["huge"]; ok {
		t.Fatal("over-budget entry was stored")
	}

	// Replacing an entry accounts the size delta.
	s.Put("a", "A2", 60)
	if got := s.Stats().Bytes; got != 2*c40+20 {
		t.Fatalf("bytes after resize = %d, want %d", got, 2*c40+20)
	}
}

// TestTinyEntriesChargeKeyAndOverhead: entries with a few bytes of
// payload under 64-character keys (a small PSA block) fill the budget
// by what they hold, not by their payload. The payload alone would fit
// 1000 of them; the charge fits exactly 10, the eleventh evicts the
// first, and the entry whose charge exceeds the budget by one byte is
// refused. A hit still credits only the payload to BytesSaved.
func TestTinyEntriesChargeKeyAndOverhead(t *testing.T) {
	const payload, keyLen = 8, 64
	const charge = payload + keyLen + entryOverhead
	s := New(10 * charge)
	key := func(i int) string { return fmt.Sprintf("%064x", i) }
	for i := 0; i < 10; i++ {
		s.Put(key(i), i, payload)
	}
	if st := s.Stats(); st.Entries != 10 || st.Bytes != 10*charge || st.Evictions != 0 {
		t.Fatalf("after 10 entries: %+v, want 10 entries, %d bytes, no eviction", st, 10*charge)
	}
	s.Put(key(10), 10, payload)
	if _, ok := s.index[key(0)]; ok {
		t.Fatal("eleventh tiny entry evicted nothing")
	}
	if st := s.Stats(); st.Entries != 10 || st.Evictions != 1 {
		t.Fatalf("after 11 entries: %+v, want 10 entries, 1 eviction", st)
	}
	s.Put(key(99), 99, 10*charge-keyLen-entryOverhead+1)
	if _, ok := s.index[key(99)]; ok {
		t.Fatal("an entry charged one byte over the budget was stored")
	}
	if _, hit, _ := s.Do(key(5), func(any) int64 { return payload }, nil); !hit {
		t.Fatal("stored tiny entry missed")
	}
	if got := s.Stats().BytesSaved; got != payload {
		t.Fatalf("bytes saved = %d, want the payload %d", got, payload)
	}
}

// Do computes each key once across concurrent callers; followers share
// the leader's stored value and count as hits with bytes saved.
func TestDoSingleFlight(t *testing.T) {
	s := New(1 << 20)
	var computes atomic.Int64
	release := make(chan struct{})
	const callers = 8

	var wg sync.WaitGroup
	vals := make([]any, callers)
	hits := make([]bool, callers)
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := s.Do("k", func(any) int64 { return 10 }, func() (any, error) {
				computes.Add(1)
				<-release
				return "value", nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			vals[i], hits[i] = v, hit
		}()
	}
	// Let every goroutine reach Do before the leader finishes.
	for computes.Load() == 0 {
	}
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	leaders := 0
	for i := 0; i < callers; i++ {
		if vals[i] != "value" {
			t.Fatalf("caller %d got %v", i, vals[i])
		}
		if !hits[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d callers reported a miss, want exactly 1 leader", leaders)
	}
	st := s.Stats()
	if st.Hits != int64(callers-1) || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want %d/1", st.Hits, st.Misses, callers-1)
	}
	if st.BytesSaved != int64(callers-1)*10 {
		t.Fatalf("bytes saved = %d, want %d", st.BytesSaved, (callers-1)*10)
	}
}

// A failing leader stores nothing; a waiting follower is promoted and
// its successful compute lands in the store.
func TestDoLeaderFailurePromotesFollower(t *testing.T) {
	s := New(1 << 20)
	boom := errors.New("boom")
	var calls atomic.Int64
	firstRunning := make(chan struct{})
	secondWaiting := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, hit, err := s.Do("k", func(any) int64 { return 1 }, func() (any, error) {
			calls.Add(1)
			close(firstRunning)
			<-secondWaiting
			return nil, boom
		})
		if hit || !errors.Is(err, boom) {
			t.Errorf("leader: hit=%v err=%v, want miss with boom", hit, err)
		}
	}()

	<-firstRunning
	var wg2 sync.WaitGroup
	wg2.Add(1)
	go func() {
		defer wg2.Done()
		v, hit, err := s.Do("k", func(any) int64 { return 1 }, func() (any, error) {
			calls.Add(1)
			return "recovered", nil
		})
		if err != nil || hit || v != "recovered" {
			t.Errorf("follower: v=%v hit=%v err=%v, want recovered miss", v, hit, err)
		}
	}()
	// The follower must be parked on the leader's flight before the
	// leader fails, or it would just lead its own flight.
	for {
		s.mu.Lock()
		_, inflight := s.flights["k"]
		s.mu.Unlock()
		if inflight {
			break
		}
	}
	close(secondWaiting)
	wg.Wait()
	wg2.Wait()

	if got := calls.Load(); got != 2 {
		t.Fatalf("compute ran %d times, want 2 (failed leader + promoted follower)", got)
	}
	if v, ok := s.Get("k"); !ok || v != "recovered" {
		t.Fatalf("stored value = %v (ok=%v), want recovered", v, ok)
	}
}

// A failed compute never leaves an entry behind (cancelled blocks use
// this contract via the incomplete-block sentinel).
func TestDoFailureStoresNothing(t *testing.T) {
	s := New(1 << 20)
	sentinel := errors.New("incomplete")
	v, hit, err := s.Do("k", func(any) int64 { return 8 }, func() (any, error) {
		return []float64{1, 0, 0}, sentinel
	})
	if !errors.Is(err, sentinel) || hit {
		t.Fatalf("hit=%v err=%v, want sentinel miss", hit, err)
	}
	// The partial value is passed through to the caller...
	if v == nil {
		t.Fatal("compute value was not passed through on error")
	}
	// ...but never observable to anyone else.
	if s.Len() != 0 {
		t.Fatalf("store holds %d entries after failed compute, want 0", s.Len())
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("failed compute's value is observable")
	}
}
