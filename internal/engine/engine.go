// Package engine is the seam between the analyses and the task-parallel
// runtimes in this repository. It defines the Executor contract — run N
// independent closures and collect their values in task order (Map),
// ship one value to every worker (Broadcast), and the Metrics sink all
// of it is accounted into — which psa.Run and leaflet.Run are written against once and which
// the rdd, dask and mpi packages each implement on their own primitives
// (the serial reference executor lives here). It also provides the
// machinery those runtimes share: a bounded worker pool, per-task
// timing with panic capture (RunTask), and the one accounting record
// every runtime reports — Snapshot, accumulated in a Metrics sink
// through Add, its only merge rule. The pilot and fleet engines
// exchange staged bytes rather than closures and stay outside the
// contract; their units account into a sink of their own and ship its
// Snapshot back, which the receiving side checks with Snapshot.Valid
// before it folds it in. The fleet's wire carries that Snapshot, so
// mdserver and mdworker must come from one build. See docs/engines.md.
package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Snapshot is the one record of engine accounting every runtime reports
// — the paper's split of a run into task execution, framework overhead
// and data staging, plus the analyses' kernel, streaming and cache
// counters. It is the wire form too: job status and /v1/metrics serve
// it as JSON, and the staged engines' units (pilot metrics files, fleet
// unit results) ship it back to be folded into the job's sink.
type Snapshot struct {
	// Tasks counts the tasks run. TasksPlanned counts the tasks the
	// engine scheduled, added by the code that decides the count at the
	// moment it schedules them — per Map on the executors, per
	// graph node on dask, per unit the block store did not serve on the
	// staged engines — so a job's progress is Tasks ÷ TasksPlanned. A
	// run that completes ends with the two equal; a failed or cancelled
	// one with Tasks ≤ TasksPlanned. A staged unit plans nothing, so its
	// shipped snapshot omits the field and a pilot unit's metrics file
	// stages no extra bytes.
	Tasks          int64         `json:"tasks"`
	TasksPlanned   int64         `json:"tasks_planned,omitempty"`
	Stages         int64         `json:"stages"`
	ComputeTime    time.Duration `json:"compute_ns"` // summed task wall time
	MaxTask        time.Duration `json:"max_task_ns"`
	MinTask        time.Duration `json:"min_task_ns"` // zero: no task yet
	BytesShuffled  int64         `json:"bytes_shuffled"`
	BytesBroadcast int64         `json:"bytes_broadcast"`
	BytesStaged    int64         `json:"bytes_staged"` // pilot file staging
	Failures       int64         `json:"failures"`

	// Hausdorff kernel frame-pair accounting (see hausdorff.Counters):
	// pairs whose dRMS ran to completion, pairs dismissed in O(1) by a
	// pruning bound or the early-break row cut, and evaluations
	// abandoned mid-sum. Their sum is the total frame pairs scheduled,
	// whatever the kernel method.
	PairsEvaluated int64 `json:"pairs_evaluated"`
	PairsPruned    int64 `json:"pairs_pruned"`
	PairsAbandoned int64 `json:"pairs_abandoned"`

	// Ball-tree descent accounting of the indexed kernel (see
	// hausdorff.Counters): nodes expanded and nodes dismissed whole by
	// their aggregate lower bound. Additive to — never part of — the
	// pair-sum invariant above; both stay zero for the flat methods.
	NodesVisited int64 `json:"nodes_visited"`
	NodesPruned  int64 `json:"nodes_pruned"`

	// Streaming accounting of the out-of-core trajectory path:
	// PeakResidentFrames is the largest number of frames any single
	// task held materialized at once (≤ 2 × the configured window in
	// streamed runs), and BytesStreamed is the total coordinate bytes
	// decoded from trajectory sources — window re-scans count every
	// time, making the streaming read amplification visible.
	PeakResidentFrames int64 `json:"peak_resident_frames"`
	BytesStreamed      int64 `json:"bytes_streamed"`

	// Block-cache accounting: task bodies that consult the
	// content-addressed block store count each lookup as a hit (the
	// kernel was skipped and BlockCacheBytesSaved grows by the cached
	// payload size) or a miss (the kernel ran and its result was
	// recorded). Hits run no kernel work, so on a fully warm run the
	// frame-pair counters stay zero while BlockCacheHits equals the
	// schedule's block count.
	BlockCacheHits       int64 `json:"block_cache_hits"`
	BlockCacheMisses     int64 `json:"block_cache_misses"`
	BlockCacheBytesSaved int64 `json:"block_cache_bytes_saved"`
}

// Valid reports the first negative field of s. Every field counts or
// times something, so a negative one can only come from a corrupt or
// hostile payload; the staged engines check a unit's snapshot with it
// before folding it into a job.
func (s Snapshot) Valid() error {
	v := reflect.ValueOf(s)
	for i := range v.NumField() {
		if x := v.Field(i).Int(); x < 0 {
			return fmt.Errorf("engine: metrics field %s is negative (%d)", v.Type().Field(i).Name, x)
		}
	}
	return nil
}

// Metrics is the concurrency-safe sink a runtime accounts into: one
// Snapshot behind a mutex. Add is its only merge rule and every
// recorder is a one-line delta through it. All methods are no-ops on
// a nil sink (Snapshot returns zeros), so callers never check.
type Metrics struct {
	mu sync.Mutex
	s  Snapshot
}

// Add folds d into the sink: counters and durations add, MaxTask and
// PeakResidentFrames widen, and MinTask narrows (a zero MinTask on
// either side means no task was observed).
func (m *Metrics) Add(d Snapshot) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &m.s
	s.Tasks += d.Tasks
	s.TasksPlanned += d.TasksPlanned
	s.Stages += d.Stages
	s.ComputeTime += d.ComputeTime
	s.MaxTask = max(s.MaxTask, d.MaxTask)
	if d.MinTask > 0 && (s.MinTask == 0 || d.MinTask < s.MinTask) {
		s.MinTask = d.MinTask
	}
	s.BytesShuffled += d.BytesShuffled
	s.BytesBroadcast += d.BytesBroadcast
	s.BytesStaged += d.BytesStaged
	s.Failures += d.Failures
	s.PairsEvaluated += d.PairsEvaluated
	s.PairsPruned += d.PairsPruned
	s.PairsAbandoned += d.PairsAbandoned
	s.NodesVisited += d.NodesVisited
	s.NodesPruned += d.NodesPruned
	s.PeakResidentFrames = max(s.PeakResidentFrames, d.PeakResidentFrames)
	s.BytesStreamed += d.BytesStreamed
	s.BlockCacheHits += d.BlockCacheHits
	s.BlockCacheMisses += d.BlockCacheMisses
	s.BlockCacheBytesSaved += d.BlockCacheBytesSaved
}

// Snapshot returns a copy of the sink's totals.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.s
}

// RecordTask accounts one completed task of the given duration.
func (m *Metrics) RecordTask(d time.Duration) {
	m.Add(Snapshot{Tasks: 1, ComputeTime: d, MaxTask: d, MinTask: d})
}

// RecordStage accounts one stage/phase barrier.
func (m *Metrics) RecordStage() { m.Add(Snapshot{Stages: 1}) }

// AddShuffle accounts bytes moved through a shuffle.
func (m *Metrics) AddShuffle(n int64) { m.Add(Snapshot{BytesShuffled: n}) }

// AddBroadcast accounts bytes moved through a broadcast.
func (m *Metrics) AddBroadcast(n int64) { m.Add(Snapshot{BytesBroadcast: n}) }

// AddStaged accounts bytes written to/read from staging files.
func (m *Metrics) AddStaged(n int64) { m.Add(Snapshot{BytesStaged: n}) }

// RecordFailure accounts one failed task.
func (m *Metrics) RecordFailure() { m.Add(Snapshot{Failures: 1}) }

// AddBlockCache accounts block-store lookups: hits (with the payload
// bytes the cache saved recomputing) and misses.
func (m *Metrics) AddBlockCache(hits, misses, bytesSaved int64) {
	m.Add(Snapshot{BlockCacheHits: hits, BlockCacheMisses: misses, BlockCacheBytesSaved: bytesSaved})
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
