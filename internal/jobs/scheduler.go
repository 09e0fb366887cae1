package jobs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mdtask/internal/blockstore"
	"mdtask/internal/engine"
	"mdtask/internal/obs"
	"mdtask/internal/traj"
)

// State is a job lifecycle state: queued → running → done|failed|cancelled.
type State string

// Job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Scheduler errors surfaced to API callers.
var (
	// ErrQueueFull is returned by Submit when the bounded queue is full.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("jobs: scheduler closed")
	// ErrJournal is returned by Submit when the durability journal
	// rejects the write (e.g. a full disk): the job was NOT admitted,
	// because acknowledging it would promise a durability the journal
	// cannot deliver.
	ErrJournal = errors.New("jobs: journal write failed")
)

// Job is one scheduled analysis: its durable record, which only the
// job table's apply writes, and the runtime handles the scheduler
// attaches — run context, input, result, metrics and spans.
type Job struct {
	rc *RunContext

	mu       sync.Mutex
	rec      JobRecord // id, normalized spec, cache key, state, error, digest, times
	cacheHit bool
	started  time.Time
	result   *Result
	final    engine.Snapshot
	input    *Input // held until the run starts, then released

	// Tracing: the job's root span, its queue.wait child (ended when a
	// worker picks the job up), and the root's trace id — the handle
	// GET /v1/jobs/{id}/trace exports. All nil/zero with tracing off.
	trace     obs.TraceID
	jobSpan   *obs.Span
	queueSpan *obs.Span
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.rec.ID }

// TraceID returns the job's trace id (zero when tracing is off).
func (j *Job) TraceID() obs.TraceID {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// record returns a copy of the job's durable fields.
func (j *Job) record() JobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}

// stateRecord is the journal record of the job moving to state.
func (j *Job) stateRecord(state State, errMsg, digest string, ts time.Time) walRecord {
	return walRecord{T: "state", ID: j.rec.ID, State: state, Err: errMsg, Digest: digest, TS: ts}
}

// Status is the JSON view of a job's current state and progress.
type Status struct {
	ID              string     `json:"id"`
	Analysis        string     `json:"analysis"`
	Engine          string     `json:"engine"`
	State           State      `json:"state"`
	Error           string     `json:"error,omitempty"`
	CacheHit        bool       `json:"cache_hit"`
	CancelRequested bool       `json:"cancel_requested,omitempty"`
	Created         time.Time  `json:"created"`
	Started         *time.Time `json:"started,omitempty"`
	Finished        *time.Time `json:"finished,omitempty"`
	// TasksDone and TasksTotal are the engine's Tasks and TasksPlanned:
	// TasksTotal appears once the engine has scheduled its tasks and is
	// absent on a whole-job cache hit, which runs none. Progress is their
	// ratio, held below 1 until the job is done.
	TasksDone  int64   `json:"tasks_done"`
	TasksTotal int     `json:"tasks_total,omitempty"`
	Progress   float64 `json:"progress"`
	// BlockHitRatio is the share of the job's block lookups answered
	// from the store — 1 for a fully warm run, 0 for a cold one, and in
	// between for a delta resubmission that recomputed only its missing
	// blocks. Zero also when the run made no block lookups.
	BlockHitRatio float64         `json:"block_hit_ratio"`
	Metrics       engine.Snapshot `json:"metrics"`
	// TraceID is the job's distributed trace id; feed it to
	// GET /v1/jobs/{id}/trace. Empty when tracing is disabled.
	TraceID string `json:"trace_id,omitempty"`
}

// Status snapshots the job: state, timing, and metrics — live engine
// metrics while running, the final snapshot once finished.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:              j.rec.ID,
		Analysis:        j.rec.Spec.Analysis,
		Engine:          j.rec.Spec.Engine,
		State:           j.rec.State,
		Error:           j.rec.Error,
		CacheHit:        j.cacheHit,
		CancelRequested: j.rc.Cancelled() && !j.rec.State.Terminal(),
		Created:         j.rec.Created,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if j.rec.State.Terminal() {
		t := j.rec.Updated
		st.Finished = &t
	}
	if !j.trace.IsZero() {
		st.TraceID = j.trace.String()
	}
	if j.rec.State.Terminal() {
		st.Metrics = j.final
	} else {
		st.Metrics = j.rc.Metrics().Snapshot()
	}
	st.TasksDone = st.Metrics.Tasks
	st.TasksTotal = int(st.Metrics.TasksPlanned)
	if looked := st.Metrics.BlockCacheHits + st.Metrics.BlockCacheMisses; looked > 0 {
		st.BlockHitRatio = float64(st.Metrics.BlockCacheHits) / float64(looked)
	}
	switch {
	case j.rec.State == StateDone:
		st.Progress = 1
	case st.TasksTotal > 0:
		p := float64(st.TasksDone) / float64(st.TasksTotal)
		if p > 0.99 {
			p = 0.99
		}
		st.Progress = p
	}
	return st
}

// Result returns the job's result alongside its state; the result is
// non-nil only in StateDone.
func (j *Job) Result() (*Result, State, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.rec.State, j.rec.Error
}

// Options sizes a Scheduler.
type Options struct {
	// Workers is the number of jobs run concurrently (< 1: 2).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (< 1: 64); Submit fails with ErrQueueFull beyond it.
	QueueDepth int
	// BlockStore is the content-addressed result store — per-block
	// kernel results and whole-job results share it. cmd/mdserver passes
	// the store its fleet coordinator also records into, so fleet
	// workers and in-process engines populate one cache. Nil: the
	// scheduler owns a store of blockstore.DefaultMaxBytes.
	BlockStore *blockstore.Store
	// MaxJobs bounds the retained job records (< 1: 4096). When a new
	// submission would exceed it, the oldest *terminal* job records —
	// status and result — are evicted, after which their ids answer 404.
	// Queued and running jobs are never evicted.
	MaxJobs int
	// Obs, when non-nil, is the observability bundle the scheduler
	// records into: a root span per job (with queue.wait and run
	// children, threaded down into the engines), queue-wait/run-time
	// histograms, job counters, and block-store gauges. Nil falls back
	// to a metrics-only bundle with tracing disabled.
	Obs *obs.Obs
	// Journal, when non-nil, is the durable job table the scheduler
	// serves from: every lifecycle transition is a record appended to
	// its log and applied (cmd/mdserver opens one under -data-dir). A
	// journal write failure at submission fails the submission — an
	// acknowledged job is always recoverable. Nil keeps the table in
	// memory, with the same records applied and none written.
	Journal *WALStore
}

// Scheduler runs the jobs of one job table (its journal): the bounded
// FIFO queue, the worker pool, the content-addressed result store
// (whole-job entries and the per-block entries every engine records
// through it), and the service-wide engine-metrics aggregate.
type Scheduler struct {
	reg      *Registry
	store    *blockstore.Store
	journal  *WALStore // the job table; memory-only without Options.Journal
	agg      *engine.Metrics
	backings backingPool // generated inputs' coordinate memory, reused between jobs

	obs           *obs.Obs
	queueWaitHist *obs.Histogram
	submittedCtr  *obs.Counter
	rejectedCtr   *obs.Counter

	cacheHits         atomic.Int64
	cacheMisses       atomic.Int64
	digestMismatchCtr *obs.Counter

	mu         sync.Mutex
	cond       *sync.Cond // signals workers when pending grows or closed flips
	closed     bool
	draining   bool // closed + leave queued jobs to the journal instead of running them out
	seq        int64
	maxJobs    int
	queueDepth int
	pending    []*Job // FIFO of queued jobs; cancelled ones are removed in place
	// recoveredDone maps the cache key of a done job recovered from the
	// journal to its digest, until the next run of that key checks it.
	recoveredDone map[string]string

	wg sync.WaitGroup
}

// NewScheduler starts a scheduler executing jobs from reg.
func NewScheduler(reg *Registry, o Options) *Scheduler {
	if o.Workers < 1 {
		o.Workers = 2
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = 64
	}
	if o.MaxJobs < 1 {
		o.MaxJobs = 4096
	}
	store := o.BlockStore
	if store == nil {
		store = blockstore.New(blockstore.DefaultMaxBytes)
	}
	ob := o.Obs
	if ob == nil {
		ob = obs.NoTrace()
	}
	journal := o.Journal
	if journal == nil {
		journal = newStore(nil, WALStoreOptions{})
	}
	s := &Scheduler{
		reg:           reg,
		store:         store,
		journal:       journal,
		agg:           &engine.Metrics{},
		backings:      backingPool{keep: o.Workers},
		obs:           ob,
		maxJobs:       o.MaxJobs,
		queueDepth:    o.QueueDepth,
		recoveredDone: make(map[string]string),
	}
	s.cond = sync.NewCond(&s.mu)
	s.registerMetrics()
	s.wg.Add(o.Workers)
	for i := 0; i < o.Workers; i++ {
		go s.worker()
	}
	return s
}

// registerMetrics wires the scheduler's instruments into its metrics
// registry: lifecycle histograms and counters, plus read-through
// gauges over the shared block store's own accounting. The store's
// single-flight wait observer feeds a histogram of how long follower
// lookups block on an in-flight leader.
func (s *Scheduler) registerMetrics() {
	m := s.obs.Metrics
	s.queueWaitHist = m.Histogram("mdtask_job_queue_wait_seconds",
		"Time jobs spend queued before a worker picks them up.", nil)
	s.submittedCtr = m.Counter("mdtask_jobs_submitted_total",
		"Jobs admitted by the scheduler (including whole-job cache hits).")
	s.rejectedCtr = m.Counter("mdtask_jobs_rejected_total",
		"Submissions shed because the bounded queue was full (the API answers 429 + Retry-After).")
	m.GaugeFunc("mdtask_jobs_queue_depth",
		"Jobs queued but not yet picked up by a worker.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.pending))
		})
	s.digestMismatchCtr = m.Counter("mdtask_jobs_result_digest_mismatch_total",
		"Runs whose result digest differs from the one journaled for an identical job recovered at boot.")
	m.CounterFunc("mdtask_jobs_journal_errors_total",
		"Failed journal writes on non-submission transitions (submission failures reject the submission instead).",
		func() float64 { return float64(s.journal.stateErrors()) })
	waitHist := m.Histogram("mdtask_blockstore_do_wait_seconds",
		"Time follower block lookups wait on an in-flight leader computing the same key.", nil)
	s.store.SetWaitObserver(func(d time.Duration) { waitHist.Observe(d.Seconds()) })
	m.GaugeFunc("mdtask_blockstore_entries",
		"Entries resident in the content-addressed block store.",
		func() float64 { return float64(s.store.Stats().Entries) })
	m.GaugeFunc("mdtask_blockstore_bytes",
		"Bytes resident in the content-addressed block store.",
		func() float64 { return float64(s.store.Stats().Bytes) })
	m.CounterFunc("mdtask_blockstore_hits_total",
		"Block store lookups answered from cache.",
		func() float64 { return float64(s.store.Stats().Hits) })
	m.CounterFunc("mdtask_blockstore_misses_total",
		"Block store lookups that missed.",
		func() float64 { return float64(s.store.Stats().Misses) })
	m.CounterFunc("mdtask_blockstore_evictions_total",
		"Block store entries evicted under the byte budget.",
		func() float64 { return float64(s.store.Stats().Evictions) })
	m.CounterFunc("mdtask_jobs_cache_hits_total",
		"Submissions answered whole from the job result cache.",
		func() float64 { return float64(s.cacheHits.Load()) })
	m.CounterFunc("mdtask_jobs_input_backings_reused_total",
		"Generated input members written into coordinate memory an earlier job gave back.",
		func() float64 { return float64(s.backings.reused.Load()) })
	m.CounterFunc("mdtask_jobs_input_backings_allocated_total",
		"Generated input members written into freshly allocated coordinate memory.",
		func() float64 { return float64(s.backings.allocated.Load()) })
	m.CounterFunc("mdtask_traj_digest_cache_hits_total",
		"Input file digests served from the process's file-identity cache without reading the file.",
		func() float64 { return float64(traj.FileDigestStats().Hits) })
	m.CounterFunc("mdtask_traj_digest_cache_misses_total",
		"Input file digests that hashed the file.",
		func() float64 { return float64(traj.FileDigestStats().Misses) })
	m.CounterFunc("mdtask_traj_digest_cache_racy_total",
		"Input file hashes not recorded: the file's times were within the timestamp granularity of the hash, or moved during it.",
		func() float64 { return float64(traj.FileDigestStats().Racy) })
	m.CounterFunc("mdtask_traj_window_stats_sketched_total",
		"Streamed window frames whose centroid and radius of gyration were served from the sketch recorded with their file's digest.",
		func() float64 { return float64(traj.FileDigestStats().WindowStatsSketched) })
	m.CounterFunc("mdtask_traj_window_stats_computed_total",
		"Streamed window frames whose centroid and radius of gyration were computed at decode.",
		func() float64 { return float64(traj.FileDigestStats().WindowStatsComputed) })
}

// Obs returns the scheduler's observability bundle (never nil; its
// Tracer is nil when tracing is disabled).
func (s *Scheduler) Obs() *obs.Obs { return s.obs }

// Submit validates and enqueues a job. The job's cache key is known
// before Submit returns, so the result cache is consulted and the key
// journaled at admission: an identical earlier submission completes the
// job on the spot, without touching the queue or any engine. A synth
// spec's key comes from its recipe (synthDigest), so a whole-job hit
// generates nothing; a miss generates the input into coordinate memory
// earlier jobs gave back. A file input is resolved (loaded, then hashed
// where the process has not hashed that file before) before its key is
// known. The caller waits for that staging, which runs one task per
// trajectory across GOMAXPROCS cores, and each queued job holds its
// input in memory until a worker picks it up — QueueDepth bounds that
// multiplier, and an overloaded (or closed) scheduler rejects
// submissions before resolving their input.
func (s *Scheduler) Submit(spec Spec) (*Job, error) {
	norm, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	if _, ok := s.reg.Lookup(RunnerName(norm.Analysis, norm.Engine)); !ok {
		return nil, fmt.Errorf("jobs: no runner registered for %q", RunnerName(norm.Analysis, norm.Engine))
	}
	// Admission control before the expensive input resolution. A full
	// queue also rejects would-be cache hits; under overload, shedding
	// load beats loading inputs just to look them up.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if len(s.pending) >= s.queueDepth {
		s.mu.Unlock()
		s.rejectedCtr.Inc()
		return nil, ErrQueueFull
	}
	s.mu.Unlock()

	var in *Input
	digest, ok := synthDigest(norm)
	if !ok {
		if in, err = resolveInput(norm, &s.backings); err != nil {
			return nil, err
		}
		if digest, err = in.ContentDigest(); err != nil {
			return nil, err
		}
	}
	key := CacheKey(norm, digest)
	cached, _ := s.store.Get(jobEntryKey(key))
	hit, _ := cached.(*jobEntry)
	if hit == nil && in == nil {
		if in, err = resolveInput(norm, &s.backings); err != nil {
			return nil, err
		}
	}
	job, err := s.admit(norm, key, in, hit)
	if job == nil {
		in.release()
	}
	return job, err
}

// admit journals and enqueues a job of key over its resolved input, or,
// given key's whole-job store entry hit, completes it on the spot.
func (s *Scheduler) admit(norm Spec, key string, in *Input, hit *jobEntry) (*Job, error) {
	now := time.Now()
	rec := JobRecord{Spec: norm, Key: key, State: StateQueued, Created: now, Updated: now}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if hit == nil && len(s.pending) >= s.queueDepth {
		s.rejectedCtr.Inc()
		return nil, ErrQueueFull
	}
	job := &Job{rc: NewRunContext(), input: in}
	if hit != nil {
		rec.State, rec.Digest = StateDone, hit.digest
		job.cacheHit, job.result, job.input = true, hit.result, nil
	}
	// Engines the runner brings up consult (and populate) the service
	// store block by block, so even a partial overlap with earlier jobs
	// skips the shared kernel work.
	job.rc.SetBlockStore(s.store)
	s.seq++
	rec.ID = fmt.Sprintf("job-%06d", s.seq)
	// Root span of the job's trace; everything below — queue wait, the
	// run, engine stages, blocks, fleet hops — nests under it. The spans
	// start before the job enters the table; a rejected submission
	// never ends them, so they are never recorded.
	job.jobSpan = s.obs.Tracer.StartRoot("job")
	job.jobSpan.SetAttr("job", rec.ID)
	job.jobSpan.SetAttr("analysis", norm.Analysis)
	job.jobSpan.SetAttr("engine", norm.Engine)
	if ctx := job.jobSpan.Context(); ctx.Valid() {
		job.trace = ctx.Trace
	}
	if hit == nil {
		job.queueSpan = s.obs.Tracer.StartChild(job.jobSpan.Context(), "queue.wait")
	}
	// Journal the admission before acknowledging it: once Submit
	// returns, the job survives a SIGKILL or a power loss. A journal
	// that cannot take the record fails the submission instead of
	// admitting a job a restart would never have heard of. This is the
	// one fsync a job's lifecycle waits on, and it rides inside s.mu —
	// admission order and journal order stay identical.
	if err := s.journal.append(walRecord{T: "submit", Job: &rec, job: job}, true); err != nil {
		s.seq--
		return nil, fmt.Errorf("%w: journaling submission: %w", ErrJournal, err)
	}
	s.submittedCtr.Inc()
	if hit != nil {
		s.cacheHits.Add(1)
		job.jobSpan.SetAttr("cache_hit", "true")
		job.jobSpan.SetAttr("state", string(StateDone))
		job.jobSpan.End()
		s.jobFinished(StateDone)
	} else {
		s.cacheMisses.Add(1)
		s.pending = append(s.pending, job)
		s.cond.Signal()
	}
	s.journal.retain(s.maxJobs)
	return job, nil
}

// jobFinished counts one job reaching a terminal state.
func (s *Scheduler) jobFinished(state State) {
	s.obs.Metrics.Counter("mdtask_jobs_completed_total",
		"Jobs reaching a terminal state, by state.", "state", string(state)).Inc()
}

// Get returns the job with the given id.
func (s *Scheduler) Get(id string) (*Job, bool) { return s.journal.job(id) }

// Jobs lists all jobs in submission order.
func (s *Scheduler) Jobs() []*Job { return s.journal.list() }

// Cancel requests cancellation of a job: a queued job is cancelled
// immediately (it leaves the queue and will never run); a running job's
// cancel flag is set and the run drains at its next block boundary,
// ending in StateCancelled without publishing a result. Finished jobs
// are unaffected. The boolean reports whether the request changed
// anything. A queued job's cancelled record is fsynced inside the table
// lock, before Cancel returns.
func (s *Scheduler) Cancel(id string) (*Job, bool) {
	j, ok := s.Get(id)
	if !ok {
		return nil, false
	}
	var queued, running bool
	s.journal.update(j, func(cur State) (walRecord, bool) {
		queued, running = cur == StateQueued, cur == StateRunning
		switch {
		case running:
			j.rc.Cancel() // under the table lock, so runJob's outcome sees it
		case queued:
			j.mu.Lock()
			j.rc.Cancel()
			j.input.release()
			j.input = nil
			j.queueSpan.SetAttr("outcome", "cancelled")
			j.queueSpan.End()
			j.jobSpan.SetAttr("state", string(StateCancelled))
			j.jobSpan.End()
			j.mu.Unlock()
			s.jobFinished(StateCancelled)
		}
		return j.stateRecord(StateCancelled, "", "", time.Now()), queued
	})
	if queued {
		s.unqueue(j) // free the queue slot immediately
	}
	return j, queued || running
}

// unqueue removes a job from the pending FIFO, freeing its queue slot
// for new submissions immediately.
func (s *Scheduler) unqueue(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, p := range s.pending {
		if p == j {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return
		}
	}
}

// ServiceMetrics is the JSON view of GET /v1/metrics: job counts by
// state, whole-job cache effectiveness, the shared block store's
// accounting, the input-file digest cache's traffic, and the aggregated
// engine accounting of every job run so far. CacheHits/CacheMisses
// count whole-job submissions answered from the store; BlockCache
// counts every lookup inside it — per-block hits from partially
// overlapping jobs land there, not in CacheHits. DigestCache counts the
// process-wide file-identity cache that admission digests through, and
// the streamed window frames whose statistics its sketches served
// (traj.FileDigestStats).
type ServiceMetrics struct {
	Jobs         map[State]int         `json:"jobs"`
	CacheHits    int64                 `json:"cache_hits"`
	CacheMisses  int64                 `json:"cache_misses"`
	CacheEntries int                   `json:"cache_entries"`
	BlockCache   blockstore.Stats      `json:"block_cache"`
	DigestCache  traj.DigestCacheStats `json:"digest_cache"`
	Engine       engine.Snapshot       `json:"engine"`
}

// Metrics snapshots the service-wide view.
func (s *Scheduler) Metrics() ServiceMetrics {
	counts := make(map[State]int)
	for _, j := range s.Jobs() {
		counts[j.record().State]++
	}
	return ServiceMetrics{
		Jobs:         counts,
		CacheHits:    s.cacheHits.Load(),
		CacheMisses:  s.cacheMisses.Load(),
		CacheEntries: s.store.Len(),
		BlockCache:   s.store.Stats(),
		DigestCache:  traj.FileDigestStats(),
		Engine:       s.agg.Snapshot(),
	}
}

// Close stops accepting submissions, drains the queue, waits for
// running jobs to finish, and (with a journal wired) records the
// clean-shutdown marker — every transition before it is known durable,
// so the next boot reports a clean restart.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.journal.shutdown() // a failure counts into mdtask_jobs_journal_errors_total
}

// BeginDrain stops admission and job pickup without cancelling queued
// work: workers exit instead of starting anything new, and queued jobs
// stay journaled as queued, so the next boot re-enqueues them in
// order. Running jobs keep running — the owner aborts or waits for
// them (cmd/mdserver closes its fleet coordinator next) and then calls
// Close for the shutdown marker. While draining, failed and cancelled
// outcomes are not committed: a job aborted by shutdown stays
// `running` in the table and re-runs from its spec on the next boot
// instead of surfacing a spurious failure.
func (s *Scheduler) BeginDrain() {
	s.mu.Lock()
	s.closed = true
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// worker pulls queued jobs and runs them to a terminal state.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.draining || len(s.pending) == 0 { // draining, or closed and drained
			s.mu.Unlock()
			return
		}
		job := s.pending[0]
		s.pending = s.pending[1:]
		s.mu.Unlock()
		s.runJob(job)
	}
}

// runJob executes one job and publishes its outcome.
func (s *Scheduler) runJob(job *Job) {
	var (
		runSpan *obs.Span
		in      *Input
		started time.Time
	)
	picked := s.journal.update(job, func(cur State) (walRecord, bool) {
		if cur != StateQueued { // cancelled while queued
			return walRecord{}, false
		}
		job.mu.Lock()
		defer job.mu.Unlock()
		job.started = time.Now()
		in, started = job.input, job.started
		s.queueWaitHist.Observe(started.Sub(job.rec.Created).Seconds())
		job.queueSpan.End()
		// The run span parents the runner's engine stage; the runner
		// reaches it through the RunContext.
		runSpan = s.obs.Tracer.StartChild(job.jobSpan.Context(), "run")
		job.rc.SetObs(s.obs, runSpan.Context())
		return job.stateRecord(StateRunning, "", "", started), true
	})
	if !picked {
		return
	}
	spec := job.rec.Spec

	var (
		res    *Result
		err    error
		digest string
	)
	runner, ok := s.reg.Lookup(RunnerName(spec.Analysis, spec.Engine))
	if !ok {
		err = fmt.Errorf("jobs: no runner registered for %q", RunnerName(spec.Analysis, spec.Engine))
	} else {
		res, err = runner(job.rc, spec, in)
	}
	// Encode once, at finish: the digest is journaled, kept with the
	// result and checked against a recovered record of the same key
	// before the job reads done. A result that cannot be encoded (a
	// ±Inf distance from finite but huge coordinates) fails the job
	// rather than being served as an empty 200.
	if err == nil && !job.rc.Cancelled() {
		if digest, err = resultDigest(res); err == nil {
			s.checkRecordedDigest(job.rec.Key, digest)
			// Publish before the job reads done, so an identical
			// submission that sees it done hits the cache.
			s.store.Put(jobEntryKey(job.rec.Key), &jobEntry{result: res, digest: digest}, resultBytes(res))
		}
	}

	final := job.rc.Metrics().Snapshot()
	s.agg.Add(final)
	// A failed/cancelled outcome during drain is a shutdown artefact
	// (the fleet coordinator aborting in-flight work), not a verdict on
	// the job: leave it `running` so the next boot re-runs it from its
	// spec. Completed results are always committed.
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	// The outcome is decided under the table lock: a cancel that found
	// the job running (and set its flag under the same lock) is never
	// answered by a done job.
	s.journal.update(job, func(State) (walRecord, bool) {
		state, errMsg := StateDone, ""
		switch {
		case job.rc.Cancelled() || errors.Is(err, ErrCancelled):
			state = StateCancelled
		case err != nil:
			state, errMsg = StateFailed, err.Error()
		}
		finished := time.Now()
		job.mu.Lock()
		// The runner has returned, and with it every reader of the
		// input: engines wait for their tasks, and a fleet job waits
		// for its in-flight blob reads when it is dropped
		// (fleet.Coordinator.Drop). So the next job may be generated
		// into this one's memory.
		in.release()
		job.input = nil
		job.final = final
		if state == StateDone {
			job.result = res
		}
		job.mu.Unlock()
		if err != nil {
			runSpan.SetAttr("error", err.Error())
		}
		runSpan.End()
		job.jobSpan.SetAttr("state", string(state))
		job.jobSpan.End()
		s.obs.Metrics.Histogram("mdtask_job_run_seconds",
			"Wall time of job runs, by analysis and engine.", nil,
			"analysis", spec.Analysis, "engine", spec.Engine).Observe(finished.Sub(started).Seconds())
		s.jobFinished(state)
		if state != StateDone {
			digest = ""
		}
		return job.stateRecord(state, errMsg, digest, finished), state == StateDone || !draining
	})
}

// checkRecordedDigest compares a finished run's result digest with the
// one journaled for a recovered done job of the same cache key, once
// per recovered job. Deterministic kernels make the two equal, so a
// mismatch — a corrupted record, or a kernel that is no longer
// deterministic — counts into mdtask_jobs_result_digest_mismatch_total.
func (s *Scheduler) checkRecordedDigest(key, digest string) {
	s.mu.Lock()
	recorded, ok := s.recoveredDone[key]
	delete(s.recoveredDone, key)
	s.mu.Unlock()
	if ok && recorded != digest {
		s.digestMismatchCtr.Inc()
	}
}

// Recover re-admits the jobs of the journal's table — the table as
// replay left it, in original submission order — before the server
// starts taking new submissions. It attaches each job's runtime
// handles; the records themselves change only through journaled
// transitions.
//
// Terminal jobs come back status-only: result bodies are not journaled
// (only their digest), so a recovered done job keeps its status,
// provenance and digest but GET .../result answers 410 Gone until an
// identical resubmission recomputes it — deterministic kernels make
// that recomputation byte-identical to the digest on record, and
// checkRecordedDigest counts any that is not.
//
// Queued and running jobs are re-enqueued (a running one journaled
// back to queued) and re-run from their normalized specs: the
// at-least-once contract. A job whose input no longer resolves is
// journaled failed with the reason rather than silently dropped. The
// job counter is restored past the highest recovered id so new
// submissions never collide.
func (s *Scheduler) Recover() {
	recoveredCtr := func(prior State) *obs.Counter {
		return s.obs.Metrics.Counter("mdtask_jobs_recovered_total",
			"Jobs re-admitted from the journal at boot, by the state they held when the previous process exited.",
			"prior", string(prior))
	}
	jobs := s.Jobs()
	s.mu.Lock()
	for _, job := range jobs {
		var n int64
		if _, err := fmt.Sscanf(job.ID(), "job-%06d", &n); err == nil && n > s.seq {
			s.seq = n
		}
	}
	s.mu.Unlock()
	for _, job := range jobs {
		rec := job.record()
		prior := rec.State
		job.rc.SetBlockStore(s.store)
		recoveredCtr(prior).Inc()
		if prior.Terminal() {
			if prior == StateDone && rec.Digest != "" {
				s.mu.Lock()
				s.recoveredDone[rec.Key] = rec.Digest
				s.mu.Unlock()
			}
			continue
		}
		// Queued or running when the previous process died: re-run from
		// the spec. Input resolution can fail now even if it succeeded
		// then (file deleted, disk gone) — that is a real failure worth
		// surfacing, not a recovery bug.
		in, err := resolveInput(rec.Spec, &s.backings)
		if err != nil {
			msg := fmt.Sprintf("jobs: recovering %s job: resolving input: %v", prior, err)
			s.journal.append(job.stateRecord(StateFailed, msg, "", time.Now()), false)
			s.jobFinished(StateFailed)
			continue
		}
		if prior == StateRunning {
			s.journal.append(job.stateRecord(StateQueued, "", "", time.Now()), false)
		}
		job.mu.Lock()
		job.input = in
		job.jobSpan = s.obs.Tracer.StartRoot("job")
		job.jobSpan.SetAttr("job", rec.ID)
		job.jobSpan.SetAttr("analysis", rec.Spec.Analysis)
		job.jobSpan.SetAttr("engine", rec.Spec.Engine)
		job.jobSpan.SetAttr("recovered_from", string(prior))
		if ctx := job.jobSpan.Context(); ctx.Valid() {
			job.trace = ctx.Trace
		}
		job.queueSpan = s.obs.Tracer.StartChild(job.jobSpan.Context(), "queue.wait")
		job.mu.Unlock()
		s.mu.Lock()
		s.pending = append(s.pending, job)
		s.cond.Signal()
		s.mu.Unlock()
	}
}

// jobEntryKey namespaces a whole-job result inside the shared store,
// alongside the per-block entries the engines record.
func jobEntryKey(cacheKey string) string { return "job|" + cacheKey }

// jobEntry is a whole-job store entry: the result and the digest its
// run journaled, which a cache hit journals in turn without encoding
// the result again.
type jobEntry struct {
	result *Result
	digest string
}
