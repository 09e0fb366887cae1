// Package engine is the seam between the analyses and the task-parallel
// runtimes in this repository. It defines the Executor contract — run N
// independent closures (Map), run N closures and combine their values
// with the engine's native reduction (Reduce), ship one value to every
// worker (Broadcast), and the Metrics sink all of it is accounted into
// — which psa.Run and leaflet.Run are written against once and which
// the rdd, dask and mpi packages each implement on their own primitives
// (the serial reference executor lives here). It also provides the
// machinery those runtimes share: a bounded worker pool, per-task
// timing with panic capture (RunTask), and the Metrics/Snapshot pair
// every runtime reports. The pilot and fleet engines exchange staged
// bytes rather than closures and stay outside the contract; see
// docs/engines.md.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics accumulates execution statistics of a runtime instance.
// All fields are safe for concurrent update through the methods.
type Metrics struct {
	mu             sync.Mutex
	Tasks          int64
	Stages         int64
	ComputeTime    time.Duration // summed task wall time
	MaxTask        time.Duration
	MinTask        time.Duration
	BytesShuffled  int64
	BytesBroadcast int64
	BytesStaged    int64 // pilot file staging
	Failures       int64

	// Hausdorff kernel frame-pair accounting (see hausdorff.Counters):
	// pairs whose dRMS ran to completion, pairs dismissed in O(1) by a
	// pruning bound or the early-break row cut, and evaluations
	// abandoned mid-sum. Their sum is the total frame pairs scheduled,
	// whatever the kernel method.
	PairsEvaluated int64
	PairsPruned    int64
	PairsAbandoned int64

	// Ball-tree descent accounting of the indexed kernel (see
	// hausdorff.Counters): nodes expanded and nodes dismissed whole by
	// their aggregate lower bound. Additive to — never part of — the
	// pair-sum invariant above; both stay zero for the flat methods.
	NodesVisited int64
	NodesPruned  int64

	// Streaming accounting of the out-of-core trajectory path:
	// PeakResidentFrames is the largest number of frames any single
	// task held materialized at once (≤ 2 × the configured window in
	// streamed runs), and BytesStreamed is the total coordinate bytes
	// decoded from trajectory sources — window re-scans count every
	// time, making the streaming read amplification visible.
	PeakResidentFrames int64
	BytesStreamed      int64

	// Block-cache accounting: task bodies that consult the
	// content-addressed block store count each lookup as a hit (the
	// kernel was skipped and BlockCacheBytesSaved grows by the cached
	// payload size) or a miss (the kernel ran and its result was
	// recorded). Hits run no kernel work, so on a fully warm run the
	// frame-pair counters stay zero while BlockCacheHits equals the
	// schedule's block count.
	BlockCacheHits       int64
	BlockCacheMisses     int64
	BlockCacheBytesSaved int64
}

// RecordTask accounts one completed task of the given duration.
func (m *Metrics) RecordTask(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Tasks++
	m.ComputeTime += d
	if d > m.MaxTask {
		m.MaxTask = d
	}
	if m.MinTask == 0 || d < m.MinTask {
		m.MinTask = d
	}
}

// RecordStage accounts one stage/phase barrier.
func (m *Metrics) RecordStage() { atomic.AddInt64(&m.Stages, 1) }

// AddShuffle accounts bytes moved through a shuffle.
func (m *Metrics) AddShuffle(n int64) { atomic.AddInt64(&m.BytesShuffled, n) }

// AddBroadcast accounts bytes moved through a broadcast.
func (m *Metrics) AddBroadcast(n int64) { atomic.AddInt64(&m.BytesBroadcast, n) }

// AddStaged accounts bytes written to/read from staging files.
func (m *Metrics) AddStaged(n int64) { atomic.AddInt64(&m.BytesStaged, n) }

// RecordFailure accounts one failed task.
func (m *Metrics) RecordFailure() { atomic.AddInt64(&m.Failures, 1) }

// AddPairs accounts Hausdorff kernel frame-pair work: full evaluations,
// O(1)-pruned pairs, and mid-sum abandons.
func (m *Metrics) AddPairs(evaluated, pruned, abandoned int64) {
	atomic.AddInt64(&m.PairsEvaluated, evaluated)
	atomic.AddInt64(&m.PairsPruned, pruned)
	atomic.AddInt64(&m.PairsAbandoned, abandoned)
}

// AddNodes accounts the indexed kernel's ball-tree descent work:
// nodes expanded and nodes dismissed whole by their aggregate bound.
func (m *Metrics) AddNodes(visited, pruned int64) {
	atomic.AddInt64(&m.NodesVisited, visited)
	atomic.AddInt64(&m.NodesPruned, pruned)
}

// ObservePeakResident widens the peak simultaneously-resident frame
// count to at least frames.
func (m *Metrics) ObservePeakResident(frames int64) {
	for {
		cur := atomic.LoadInt64(&m.PeakResidentFrames)
		if frames <= cur || atomic.CompareAndSwapInt64(&m.PeakResidentFrames, cur, frames) {
			return
		}
	}
}

// AddStreamed accounts coordinate bytes decoded from trajectory
// sources.
func (m *Metrics) AddStreamed(n int64) { atomic.AddInt64(&m.BytesStreamed, n) }

// AddBlockCache accounts block-store lookups: hits (with the payload
// bytes the cache saved recomputing) and misses.
func (m *Metrics) AddBlockCache(hits, misses, bytesSaved int64) {
	atomic.AddInt64(&m.BlockCacheHits, hits)
	atomic.AddInt64(&m.BlockCacheMisses, misses)
	atomic.AddInt64(&m.BlockCacheBytesSaved, bytesSaved)
}

// Snapshot is a plain (lock-free, JSON-friendly) copy of a Metrics
// sink: the wire form of engine accounting in job status and
// /v1/metrics. Fields mirror Metrics one for one (a reflection test
// pins that).
type Snapshot struct {
	Tasks          int64         `json:"tasks"`
	Stages         int64         `json:"stages"`
	ComputeTime    time.Duration `json:"compute_ns"`
	MaxTask        time.Duration `json:"max_task_ns"`
	MinTask        time.Duration `json:"min_task_ns"`
	BytesShuffled  int64         `json:"bytes_shuffled"`
	BytesBroadcast int64         `json:"bytes_broadcast"`
	BytesStaged    int64         `json:"bytes_staged"`
	Failures       int64         `json:"failures"`

	PairsEvaluated int64 `json:"pairs_evaluated"`
	PairsPruned    int64 `json:"pairs_pruned"`
	PairsAbandoned int64 `json:"pairs_abandoned"`

	NodesVisited int64 `json:"nodes_visited"`
	NodesPruned  int64 `json:"nodes_pruned"`

	PeakResidentFrames int64 `json:"peak_resident_frames"`
	BytesStreamed      int64 `json:"bytes_streamed"`

	BlockCacheHits       int64 `json:"block_cache_hits"`
	BlockCacheMisses     int64 `json:"block_cache_misses"`
	BlockCacheBytesSaved int64 `json:"block_cache_bytes_saved"`
}

// Snapshot returns a copy of the metrics safe to read.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Snapshot{
		Tasks:          m.Tasks,
		Stages:         atomic.LoadInt64(&m.Stages),
		ComputeTime:    m.ComputeTime,
		MaxTask:        m.MaxTask,
		MinTask:        m.MinTask,
		BytesShuffled:  atomic.LoadInt64(&m.BytesShuffled),
		BytesBroadcast: atomic.LoadInt64(&m.BytesBroadcast),
		BytesStaged:    atomic.LoadInt64(&m.BytesStaged),
		Failures:       atomic.LoadInt64(&m.Failures),
		PairsEvaluated: atomic.LoadInt64(&m.PairsEvaluated),
		PairsPruned:    atomic.LoadInt64(&m.PairsPruned),
		PairsAbandoned: atomic.LoadInt64(&m.PairsAbandoned),
		NodesVisited:   atomic.LoadInt64(&m.NodesVisited),
		NodesPruned:    atomic.LoadInt64(&m.NodesPruned),

		PeakResidentFrames: atomic.LoadInt64(&m.PeakResidentFrames),
		BytesStreamed:      atomic.LoadInt64(&m.BytesStreamed),

		BlockCacheHits:       atomic.LoadInt64(&m.BlockCacheHits),
		BlockCacheMisses:     atomic.LoadInt64(&m.BlockCacheMisses),
		BlockCacheBytesSaved: atomic.LoadInt64(&m.BlockCacheBytesSaved),
	}
}

// MergeFrom folds the current totals of another sink into m: counters
// and durations add, task extrema widen. The job scheduler uses it to
// aggregate per-job engine metrics into a service-wide view.
func (m *Metrics) MergeFrom(other *Metrics) {
	if other == nil {
		return
	}
	s := other.Snapshot()
	m.mu.Lock()
	m.Tasks += s.Tasks
	m.ComputeTime += s.ComputeTime
	if s.MaxTask > m.MaxTask {
		m.MaxTask = s.MaxTask
	}
	if s.MinTask > 0 && (m.MinTask == 0 || s.MinTask < m.MinTask) {
		m.MinTask = s.MinTask
	}
	m.mu.Unlock()
	atomic.AddInt64(&m.Stages, s.Stages)
	atomic.AddInt64(&m.BytesShuffled, s.BytesShuffled)
	atomic.AddInt64(&m.BytesBroadcast, s.BytesBroadcast)
	atomic.AddInt64(&m.BytesStaged, s.BytesStaged)
	atomic.AddInt64(&m.Failures, s.Failures)
	m.AddPairs(s.PairsEvaluated, s.PairsPruned, s.PairsAbandoned)
	m.AddNodes(s.NodesVisited, s.NodesPruned)
	m.ObservePeakResident(s.PeakResidentFrames)
	m.AddStreamed(s.BytesStreamed)
	m.AddBlockCache(s.BlockCacheHits, s.BlockCacheMisses, s.BlockCacheBytesSaved)
}

// TaskPanicError wraps a panic recovered from a task so callers get an
// error instead of a crashed process.
type TaskPanicError struct {
	Task  int
	Value interface{}
}

func (e *TaskPanicError) Error() string {
	return fmt.Sprintf("engine: task %d panicked: %v", e.Task, e.Value)
}

// Pool is a bounded parallel-for executor.
type Pool struct {
	workers int
	metrics *Metrics
	// Cancel, when non-nil, is polled before each iteration is handed
	// out: once it reports true no further iteration starts and ForEach
	// returns ErrCancelled.
	Cancel func() bool
}

// NewPool creates a pool with the given parallelism; values < 1 default
// to GOMAXPROCS. The metrics sink may be nil.
func NewPool(workers int, m *Metrics) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, metrics: m}
}

// Workers returns the pool's parallelism.
func (p *Pool) Workers() int { return p.workers }

// ForEach runs fn(i) for i in [0, n) on the pool's workers and returns
// the error (including recovered panics) of the lowest failing index —
// the one a sequential loop would have stopped at, whatever order the
// workers happened to fail in. All n iterations are attempted even
// after an error so that partial results are complete; only
// cancellation stops iterations from being handed out, and it reports
// ErrCancelled as the error of the first index it withheld.
func (p *Pool) ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	var (
		next     int64 = -1
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstIdx = n
		first    error
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, first = i, err
		}
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if p.Cancel != nil && p.Cancel() {
					fail(i, ErrCancelled)
					return
				}
				if err := RunTask(p.metrics, i, func() error { return fn(i) }); err != nil {
					fail(i, err)
				}
			}
		}()
	}
	wg.Wait()
	return first
}
