// Package blockstore implements the content-addressed result store
// that backs block-level caching across jobs, engines, and the fleet.
//
// # Keys
//
// The store holds two kinds of entry: PSA blocks and whole-job results.
// Entries are keyed by content, not by job: a PSA block key digests the
// block layout (rectangular vs. triangle-packed diagonal) and the
// content digests of the trajectories in its row and column ranges
// (psa.BlockKey); whole-job results are stored under their
// jobs.CacheKey. Leaflet tiles are not stored: a tile's key would digest
// the whole membrane, so a tile could hit only when the same membrane,
// cutoff and task count re-ran on another engine or approach, which no
// workload does. Because keys
// carry no absolute matrix coordinates and no job identity, the same
// trajectory pair hits the cache wherever it lands in the schedule —
// which is what makes delta resubmission work: a job sharing K of N
// trajectories with cached work re-computes only the O(ΔN·N) blocks
// involving new trajectories, and assembles the rest from the store.
//
// Method, schedule, and frame-residency parameters are deliberately
// excluded from PSA block keys: every Hausdorff method is exact and the
// streamed kernel is bit-identical to the in-memory one, so the values
// of a block depend only on trajectory content and block layout.
//
// # Eviction
//
// The store holds a byte budget, not an entry count: each Put carries
// the entry's payload size, the store charges the entry that payload
// plus its key's length plus entryOverhead, and the least-recently-used
// entries are evicted until the budget holds. An entry whose charge
// exceeds the whole budget is not stored. A hit credits only the
// payload to BytesSaved: that is the work it saved, while the charge is
// what the entry holds in memory.
//
// # Single flight
//
// Do de-duplicates concurrent identical blocks: the first caller
// computes, later callers wait and share the stored value. If the
// leader fails (or its block was cancelled mid-run), one waiter is
// promoted to compute instead, so a transient failure never poisons
// the key.
//
// # Cancellation
//
// Values are recorded only for completed kernels. A cancelled block's
// zero-filled remainder is never written: compute functions signal an
// incomplete result with an error (the psa and leaflet hooks use a
// sentinel), which Do passes through without storing.
package blockstore

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxBytes is the byte budget used when New is given a
// non-positive budget (mdserver's -cache-bytes default).
const DefaultMaxBytes = 256 << 20

// entryOverhead is what the store charges an entry beyond its payload
// and key bytes: the entry itself, its LRU list element, its index map
// slot and the boxed value header. It is rounded up from ≈ 115 B per
// entry, the live-heap growth of 200 000 Puts of 64-character keys on
// amd64 with Go 1.24. It makes a small entry (a PSA block of a few
// float64s) cost the budget the few hundred bytes it holds, not tens.
const entryOverhead = 128

// Stats is a point-in-time snapshot of store accounting.
type Stats struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Entries    int   `json:"entries"`
	Bytes      int64 `json:"bytes"`
	MaxBytes   int64 `json:"max_bytes"`
	BytesSaved int64 `json:"bytes_saved"`
	Evictions  int64 `json:"evictions"`
}

type entry struct {
	key     string
	val     any
	payload int64 // the Put's size: what a hit saves
	charge  int64 // payload + len(key) + entryOverhead: what the budget pays
}

// flight is one in-progress computation of a key.
type flight struct {
	done chan struct{}
	val  any
	ok   bool // leader completed and stored a value
}

// Store is a byte-budget LRU of content-addressed results, safe for
// concurrent use.
type Store struct {
	mu         sync.Mutex
	maxBytes   int64
	bytes      int64
	ll         *list.List // front = most recently used; values are *entry
	index      map[string]*list.Element
	flights    map[string]*flight
	hits       int64
	misses     int64
	bytesSaved int64
	evictions  int64

	// waitObserver, when set, receives the time each follower of a
	// single-flight Do spent blocked on another caller's computation —
	// the contention signal of the store (leaders and plain hits never
	// wait and are not observed).
	waitObserver atomic.Pointer[func(time.Duration)]
}

// SetWaitObserver installs the follower-wait observer (nil clears it).
// The observability layer points it at a latency histogram.
func (s *Store) SetWaitObserver(fn func(time.Duration)) {
	if fn == nil {
		s.waitObserver.Store(nil)
		return
	}
	s.waitObserver.Store(&fn)
}

// New returns a store with the given byte budget; non-positive budgets
// fall back to DefaultMaxBytes.
func New(maxBytes int64) *Store {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Store{
		maxBytes: maxBytes,
		ll:       list.New(),
		index:    make(map[string]*list.Element),
		flights:  make(map[string]*flight),
	}
}

// Get returns the value stored under key, counting a hit or miss and
// refreshing the entry's recency.
func (s *Store) Get(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.index[key]; ok {
		s.ll.MoveToFront(el)
		s.hits++
		return el.Value.(*entry).val, true
	}
	s.misses++
	return nil, false
}

// Put stores val under key with the given payload size, evicting
// least-recently-used entries until the byte budget holds. The entry is
// charged its payload, its key's length and entryOverhead; an entry
// whose charge exceeds the whole budget is not stored. Sizes below
// zero are treated as zero.
func (s *Store) Put(key string, val any, size int64) {
	if size < 0 {
		size = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putLocked(key, val, size)
}

func (s *Store) putLocked(key string, val any, size int64) {
	charge := size + int64(len(key)) + entryOverhead
	if charge > s.maxBytes {
		return
	}
	if el, ok := s.index[key]; ok {
		e := el.Value.(*entry)
		s.bytes += charge - e.charge
		e.val, e.payload, e.charge = val, size, charge
		s.ll.MoveToFront(el)
	} else {
		e := &entry{key: key, val: val, payload: size, charge: charge}
		s.index[key] = s.ll.PushFront(e)
		s.bytes += charge
	}
	for s.bytes > s.maxBytes {
		oldest := s.ll.Back()
		if oldest == nil {
			break
		}
		e := oldest.Value.(*entry)
		s.ll.Remove(oldest)
		delete(s.index, e.key)
		s.bytes -= e.charge
		s.evictions++
	}
}

// Do returns the value for key, computing it at most once across
// concurrent callers. On a hit (stored entry, or a concurrent leader's
// freshly stored value) it reports hit=true and credits sizeOf(val)
// bytes as saved work. On a miss the caller becomes the leader: it runs
// compute, stores the value only when compute succeeds, and passes
// compute's value and error through either way. If a leader fails,
// one waiting caller is promoted to leader and retries.
func (s *Store) Do(key string, sizeOf func(val any) int64, compute func() (any, error)) (val any, hit bool, err error) {
	for {
		s.mu.Lock()
		if el, ok := s.index[key]; ok {
			s.ll.MoveToFront(el)
			e := el.Value.(*entry)
			s.hits++
			s.bytesSaved += e.payload
			s.mu.Unlock()
			return e.val, true, nil
		}
		if f, ok := s.flights[key]; ok {
			s.mu.Unlock()
			waitStart := time.Now()
			<-f.done
			if fn := s.waitObserver.Load(); fn != nil {
				(*fn)(time.Since(waitStart))
			}
			if f.ok {
				s.mu.Lock()
				s.hits++
				s.bytesSaved += sizeOf(f.val)
				s.mu.Unlock()
				return f.val, true, nil
			}
			// Leader failed; loop and race to become the next leader.
			continue
		}
		f := &flight{done: make(chan struct{})}
		s.flights[key] = f
		s.misses++
		s.mu.Unlock()

		val, err = compute()
		s.mu.Lock()
		delete(s.flights, key)
		if err == nil {
			s.putLocked(key, val, sizeOf(val))
			f.val, f.ok = val, true
		}
		s.mu.Unlock()
		close(f.done)
		return val, false, err
	}
}

// Len returns the number of stored entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Stats returns a snapshot of the store's accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:       s.hits,
		Misses:     s.misses,
		Entries:    s.ll.Len(),
		Bytes:      s.bytes,
		MaxBytes:   s.maxBytes,
		BytesSaved: s.bytesSaved,
		Evictions:  s.evictions,
	}
}
