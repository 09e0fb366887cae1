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

// Job is one scheduled analysis: a normalized spec, its lifecycle
// state, and (once finished) its result and metrics.
type Job struct {
	id         string
	spec       Spec
	key        string
	totalTasks int
	rc         *RunContext

	mu       sync.Mutex
	state    State
	errMsg   string
	cacheHit bool
	created  time.Time
	started  time.Time
	finished time.Time
	result   *Result
	final    MetricsSnapshot
	input    *Input // held until the run starts, then released

	// Tracing: the job's root span, its queue.wait child (ended when a
	// worker picks the job up), and the root's trace id — the handle
	// GET /v1/jobs/{id}/trace exports. All nil/zero with tracing off.
	trace     obs.TraceID
	jobSpan   *obs.Span
	queueSpan *obs.Span
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// TraceID returns the job's trace id (zero when tracing is off).
func (j *Job) TraceID() obs.TraceID {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// Spec returns the job's normalized spec.
func (j *Job) Spec() Spec { return j.spec }

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
	TasksDone       int64      `json:"tasks_done"`
	TasksTotal      int        `json:"tasks_total,omitempty"`
	Progress        float64    `json:"progress"`
	// BlockHitRatio is the share of the job's block lookups answered
	// from the store — 1 for a fully warm run, 0 for a cold one, and in
	// between for a delta resubmission that recomputed only its missing
	// blocks. Zero also when the run made no block lookups.
	BlockHitRatio float64         `json:"block_hit_ratio"`
	Metrics       MetricsSnapshot `json:"metrics"`
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
		ID:              j.id,
		Analysis:        j.spec.Analysis,
		Engine:          j.spec.Engine,
		State:           j.state,
		Error:           j.errMsg,
		CacheHit:        j.cacheHit,
		CancelRequested: j.rc.Cancelled() && !j.state.Terminal(),
		Created:         j.created,
		TasksTotal:      j.totalTasks,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if !j.trace.IsZero() {
		st.TraceID = j.trace.String()
	}
	if j.state.Terminal() {
		st.Metrics = j.final
	} else {
		st.Metrics = SnapshotOf(j.rc.Metrics())
	}
	st.TasksDone = st.Metrics.Tasks
	if looked := st.Metrics.BlockCacheHits + st.Metrics.BlockCacheMisses; looked > 0 {
		st.BlockHitRatio = float64(st.Metrics.BlockCacheHits) / float64(looked)
	}
	switch {
	case j.state == StateDone:
		st.Progress = 1
	case j.totalTasks > 0:
		p := float64(st.TasksDone) / float64(j.totalTasks)
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
	return j.result, j.state, j.errMsg
}

// Options sizes a Scheduler.
type Options struct {
	// Workers is the number of jobs run concurrently (< 1: 2).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (< 1: 64); Submit fails with ErrQueueFull beyond it.
	QueueDepth int
	// CacheBytes is the byte budget of the content-addressed result
	// store — per-block kernel results and whole-job results share it
	// (< 1: blockstore.DefaultMaxBytes). Ignored when BlockStore is set.
	CacheBytes int64
	// BlockStore, when non-nil, is a store the scheduler shares with
	// other components instead of owning its own — cmd/mdserver passes
	// the store its fleet coordinator also records into, so fleet
	// workers and in-process engines populate one cache.
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
	// Journal, when non-nil, is the durable job store every lifecycle
	// transition is written through (cmd/mdserver wires a WALStore
	// under -data-dir). A journal write failure at submission fails
	// the submission — an acknowledged job is always recoverable. Nil
	// keeps the scheduler memory-only.
	Journal Store
}

// Scheduler owns the job table, the bounded FIFO queue, the worker
// pool, the content-addressed result store (whole-job entries and the
// per-block entries every engine records through it), and the
// service-wide engine-metrics aggregate.
type Scheduler struct {
	reg     *Registry
	store   *blockstore.Store
	journal Store // nil: memory-only
	agg     *engine.Metrics

	obs           *obs.Obs
	queueWaitHist *obs.Histogram
	submittedCtr  *obs.Counter
	rejectedCtr   *obs.Counter

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	journalErrs atomic.Int64

	mu         sync.Mutex
	cond       *sync.Cond // signals workers when pending grows or closed flips
	closed     bool
	draining   bool // closed + leave queued jobs to the journal instead of running them out
	seq        int64
	maxJobs    int
	queueDepth int
	pending    []*Job // FIFO of queued jobs; cancelled ones are removed in place
	jobs       map[string]*Job
	order      []*Job

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
		store = blockstore.New(o.CacheBytes)
	}
	ob := o.Obs
	if ob == nil {
		ob = obs.NoTrace()
	}
	s := &Scheduler{
		reg:        reg,
		store:      store,
		journal:    o.Journal,
		agg:        &engine.Metrics{},
		obs:        ob,
		maxJobs:    o.MaxJobs,
		queueDepth: o.QueueDepth,
		jobs:       make(map[string]*Job),
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
	m.CounterFunc("mdtask_jobs_journal_errors_total",
		"Failed journal writes on non-submission transitions (submission failures reject the submission instead).",
		func() float64 { return float64(s.journalErrs.Load()) })
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
}

// Obs returns the scheduler's observability bundle (never nil; its
// Tracer is nil when tracing is disabled).
func (s *Scheduler) Obs() *obs.Obs { return s.obs }

// Submit validates and enqueues a job. The input is resolved (loaded or
// generated) and content-digested before Submit returns, so the result
// cache can be consulted and the cache key journaled at admission: an
// identical earlier submission completes the job on the spot, without
// touching the queue or any engine. The caller waits for that staging,
// which runs one task per trajectory across GOMAXPROCS cores (load or
// generate, then digest), and each queued job holds its input in memory
// until a worker picks it up — QueueDepth bounds that multiplier, and
// an overloaded (or closed) scheduler rejects submissions before
// resolving their input.
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

	in, err := ResolveInput(norm)
	if err != nil {
		return nil, err
	}
	digest, err := in.ContentDigest()
	if err != nil {
		return nil, err
	}
	job := &Job{
		spec:       norm,
		key:        CacheKey(norm, digest),
		totalTasks: PlannedTasks(norm, in),
		rc:         NewRunContext(),
		state:      StateQueued,
		created:    time.Now(),
		input:      in,
	}
	// Engines the runner brings up consult (and populate) the service
	// store block by block, so even a partial overlap with earlier jobs
	// skips the shared kernel work.
	job.rc.SetBlockStore(s.store)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	cached, hitOK := s.store.Get(jobEntryKey(job.key))
	if !hitOK && len(s.pending) >= s.queueDepth {
		s.rejectedCtr.Inc()
		return nil, ErrQueueFull
	}
	s.seq++
	job.id = fmt.Sprintf("job-%06d", s.seq)
	// Journal the admission before acknowledging it: once Submit
	// returns, the job survives a SIGKILL. A journal that cannot take
	// the record fails the submission instead of admitting a job a
	// restart would never have heard of. The fsync rides inside s.mu —
	// admission order and journal order stay identical.
	if s.journal != nil {
		rec := JobRecord{
			ID: job.id, Spec: norm, Key: job.key, State: StateQueued,
			Created: job.created, Updated: job.created,
		}
		if hitOK {
			rec.State = StateDone
			rec.Digest = resultDigestOf(cached.(*Result))
		}
		if jerr := s.journal.JournalSubmit(rec); jerr != nil {
			s.seq--
			return nil, fmt.Errorf("%w: journaling submission: %w", ErrJournal, jerr)
		}
	}
	s.jobs[job.id] = job
	s.order = append(s.order, job)
	s.submittedCtr.Inc()
	// Root span of the job's trace; everything below — queue wait, the
	// run, engine stages, blocks, fleet hops — nests under it.
	job.jobSpan = s.obs.Tracer.StartRoot("job")
	job.jobSpan.SetAttr("job", job.id)
	job.jobSpan.SetAttr("analysis", job.spec.Analysis)
	job.jobSpan.SetAttr("engine", job.spec.Engine)
	if ctx := job.jobSpan.Context(); ctx.Valid() {
		job.trace = ctx.Trace
	}
	if hitOK {
		s.cacheHits.Add(1)
		job.state = StateDone
		job.cacheHit = true
		job.result = cached.(*Result)
		job.finished = job.created
		job.input = nil
		job.jobSpan.SetAttr("cache_hit", "true")
		job.jobSpan.SetAttr("state", string(StateDone))
		job.jobSpan.End()
		s.jobFinished(StateDone)
	} else {
		s.cacheMisses.Add(1)
		job.queueSpan = s.obs.Tracer.StartChild(job.jobSpan.Context(), "queue.wait")
		s.pending = append(s.pending, job)
		s.cond.Signal()
	}
	s.pruneLocked()
	return job, nil
}

// jobFinished counts one job reaching a terminal state.
func (s *Scheduler) jobFinished(state State) {
	s.obs.Metrics.Counter("mdtask_jobs_completed_total",
		"Jobs reaching a terminal state, by state.", "state", string(state)).Inc()
}

// journalState journals a non-submission lifecycle transition.
// Failures are counted rather than surfaced: the in-memory state is
// already committed, and the gap shows up as
// mdtask_jobs_journal_errors_total (worst case, recovery re-runs the
// job — the at-least-once contract absorbs it).
func (s *Scheduler) journalState(id string, state State, errMsg, digest string, ts time.Time) {
	if s.journal == nil {
		return
	}
	if err := s.journal.JournalState(id, state, errMsg, digest, ts); err != nil {
		s.journalErrs.Add(1)
	}
}

// pruneLocked evicts the oldest terminal job records beyond MaxJobs so
// the job table (and the results it pins) stays bounded on a
// long-running server. Callers hold s.mu.
func (s *Scheduler) pruneLocked() {
	if len(s.order) <= s.maxJobs {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - s.maxJobs
	var evicted []string
	for _, j := range s.order {
		if excess > 0 {
			j.mu.Lock()
			terminal := j.state.Terminal()
			j.mu.Unlock()
			if terminal {
				delete(s.jobs, j.id)
				evicted = append(evicted, j.id)
				excess--
				continue
			}
		}
		kept = append(kept, j)
	}
	// Drop the tail references so evicted jobs can be collected.
	for i := len(kept); i < len(s.order); i++ {
		s.order[i] = nil
	}
	s.order = kept
	if s.journal != nil && len(evicted) > 0 {
		if err := s.journal.JournalPrune(evicted); err != nil {
			s.journalErrs.Add(1)
		}
	}
}

// Get returns the job with the given id.
func (s *Scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists all jobs in submission order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	copy(out, s.order)
	return out
}

// Cancel requests cancellation of a job: a queued job is cancelled
// immediately (it leaves the queue and will never run); a running job's
// cancel flag is set and the run drains at its next block boundary,
// ending in StateCancelled without publishing a result. Finished jobs
// are unaffected. The boolean reports whether the request changed
// anything.
func (s *Scheduler) Cancel(id string) (*Job, bool) {
	j, ok := s.Get(id)
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	var wasQueued bool
	var changed bool
	switch j.state {
	case StateQueued:
		j.rc.Cancel()
		j.state = StateCancelled
		j.finished = time.Now()
		j.input = nil
		j.queueSpan.SetAttr("outcome", "cancelled")
		j.queueSpan.End()
		j.jobSpan.SetAttr("state", string(StateCancelled))
		j.jobSpan.End()
		s.jobFinished(StateCancelled)
		wasQueued, changed = true, true
	case StateRunning:
		j.rc.Cancel()
		changed = true
	}
	finishedAt := j.finished
	j.mu.Unlock()
	if wasQueued {
		// Free the queue slot immediately (never while holding j.mu:
		// pruneLocked nests the locks the other way round).
		s.unqueue(j)
		s.journalState(j.id, StateCancelled, "", "", finishedAt)
	}
	return j, changed
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
// accounting, and the aggregated engine accounting of every job run so
// far. CacheHits/CacheMisses count whole-job submissions answered from
// the store; BlockCache counts every lookup inside it — per-block hits
// from partially overlapping jobs land there, not in CacheHits.
type ServiceMetrics struct {
	Jobs         map[State]int    `json:"jobs"`
	CacheHits    int64            `json:"cache_hits"`
	CacheMisses  int64            `json:"cache_misses"`
	CacheEntries int              `json:"cache_entries"`
	BlockCache   blockstore.Stats `json:"block_cache"`
	Engine       MetricsSnapshot  `json:"engine"`
}

// Metrics snapshots the service-wide view.
func (s *Scheduler) Metrics() ServiceMetrics {
	counts := make(map[State]int)
	for _, j := range s.Jobs() {
		counts[j.Status().State]++
	}
	return ServiceMetrics{
		Jobs:         counts,
		CacheHits:    s.cacheHits.Load(),
		CacheMisses:  s.cacheMisses.Load(),
		CacheEntries: s.store.Len(),
		BlockCache:   s.store.Stats(),
		Engine:       SnapshotOf(s.agg),
	}
}

// BlockStore exposes the scheduler's content-addressed result store
// (shared with whatever components the owner wired it into).
func (s *Scheduler) BlockStore() *blockstore.Store { return s.store }

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
	if s.journal != nil {
		if err := s.journal.JournalShutdown(); err != nil {
			s.journalErrs.Add(1)
		}
	}
}

// BeginDrain stops admission and job pickup without cancelling queued
// work: workers exit instead of starting anything new, and queued jobs
// stay journaled as queued, so the next boot re-enqueues them in
// order. Running jobs keep running — the owner aborts or waits for
// them (cmd/mdserver closes its fleet coordinator next) and then calls
// Close for the shutdown marker. While draining, terminal journal
// writes for failed/cancelled runs are suppressed: a job aborted by
// shutdown stays `running` in the journal and re-runs from its spec on
// the next boot instead of surfacing a spurious failure.
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
	job.mu.Lock()
	if job.state != StateQueued { // cancelled while queued
		job.mu.Unlock()
		return
	}
	job.state = StateRunning
	job.started = time.Now()
	spec, in := job.spec, job.input
	started := job.started
	s.queueWaitHist.Observe(job.started.Sub(job.created).Seconds())
	job.queueSpan.End()
	// The run span parents the runner's engine stage; the runner reaches
	// it through the RunContext.
	runSpan := s.obs.Tracer.StartChild(job.jobSpan.Context(), "run")
	job.rc.SetObs(s.obs, runSpan.Context())
	job.mu.Unlock()
	s.journalState(job.id, StateRunning, "", "", started)

	var (
		res *Result
		err error
	)
	runner, ok := s.reg.Lookup(RunnerName(spec.Analysis, spec.Engine))
	if !ok {
		err = fmt.Errorf("jobs: no runner registered for %q", RunnerName(spec.Analysis, spec.Engine))
	} else {
		res, err = runner(job.rc, spec, in)
	}

	live := job.rc.Metrics()
	s.agg.MergeFrom(live)

	job.mu.Lock()
	job.input = nil
	job.final = SnapshotOf(live)
	job.finished = time.Now()
	var publish bool
	switch {
	case job.rc.Cancelled() || errors.Is(err, ErrCancelled):
		job.state = StateCancelled
	case err != nil:
		job.state = StateFailed
		job.errMsg = err.Error()
	default:
		job.state = StateDone
		job.result = res
		publish = true
	}
	if err != nil {
		runSpan.SetAttr("error", err.Error())
	}
	runSpan.End()
	job.jobSpan.SetAttr("state", string(job.state))
	job.jobSpan.End()
	state := job.state
	errMsg := job.errMsg
	key := job.key
	finishedAt := job.finished
	runDur := job.finished.Sub(job.started)
	job.mu.Unlock()
	s.obs.Metrics.Histogram("mdtask_job_run_seconds",
		"Wall time of job runs, by analysis and engine.", nil,
		"analysis", spec.Analysis, "engine", spec.Engine).Observe(runDur.Seconds())
	s.jobFinished(state)
	if publish {
		s.store.Put(jobEntryKey(key), res, resultBytes(res))
	}
	// A failed/cancelled outcome during drain is a shutdown artefact
	// (the fleet coordinator aborting in-flight work), not a verdict on
	// the job: leave it `running` in the journal so the next boot
	// re-runs it from its spec. Completed results are always journaled.
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if state == StateDone || !draining {
		var digest string
		if state == StateDone {
			digest = resultDigestOf(res)
		}
		s.journalState(job.id, state, errMsg, digest, finishedAt)
	}
}

// Recover re-admits jobs reconstructed from the journal, in original
// submission order, before the server starts taking new submissions.
//
// Terminal records come back as status-only entries: result bodies are
// not journaled (only their digest), so a recovered done job keeps its
// status and provenance but GET .../result answers 410 Gone until an
// identical resubmission recomputes it — deterministic kernels make
// that recomputation byte-identical to the digest on record.
//
// Queued and running records are re-enqueued and re-run from their
// normalized specs: the at-least-once contract. A record whose input
// no longer resolves is marked failed with the reason (and journaled
// as such) rather than silently dropped. The job counter is restored
// past the highest recovered id so new submissions never collide.
func (s *Scheduler) Recover(recs []JobRecord) {
	recoveredCtr := func(prior State) *obs.Counter {
		return s.obs.Metrics.Counter("mdtask_jobs_recovered_total",
			"Jobs re-admitted from the journal at boot, by the state they held when the previous process exited.",
			"prior", string(prior))
	}
	s.mu.Lock()
	for _, rec := range recs {
		var n int64
		if _, err := fmt.Sscanf(rec.ID, "job-%06d", &n); err == nil && n > s.seq {
			s.seq = n
		}
	}
	s.mu.Unlock()
	for _, rec := range recs {
		prior := rec.State
		job := &Job{
			id:      rec.ID,
			spec:    rec.Spec,
			key:     rec.Key,
			rc:      NewRunContext(),
			state:   rec.State,
			errMsg:  rec.Error,
			created: rec.Created,
		}
		job.rc.SetBlockStore(s.store)
		if rec.State.Terminal() {
			job.finished = rec.Updated
			s.mu.Lock()
			s.jobs[job.id] = job
			s.order = append(s.order, job)
			s.mu.Unlock()
			recoveredCtr(prior).Inc()
			continue
		}
		// Queued or running when the previous process died: re-run from
		// the spec. Input resolution can fail now even if it succeeded
		// then (file deleted, disk gone) — that is a real failure worth
		// surfacing, not a recovery bug.
		in, err := ResolveInput(rec.Spec)
		if err != nil {
			job.state = StateFailed
			job.errMsg = fmt.Sprintf("jobs: recovering %s job: resolving input: %v", prior, err)
			job.finished = time.Now()
			s.mu.Lock()
			s.jobs[job.id] = job
			s.order = append(s.order, job)
			s.mu.Unlock()
			s.journalState(job.id, StateFailed, job.errMsg, "", job.finished)
			s.jobFinished(StateFailed)
			recoveredCtr(prior).Inc()
			continue
		}
		job.state = StateQueued
		job.totalTasks = PlannedTasks(rec.Spec, in)
		job.input = in
		s.mu.Lock()
		job.jobSpan = s.obs.Tracer.StartRoot("job")
		job.jobSpan.SetAttr("job", job.id)
		job.jobSpan.SetAttr("analysis", job.spec.Analysis)
		job.jobSpan.SetAttr("engine", job.spec.Engine)
		job.jobSpan.SetAttr("recovered_from", string(prior))
		if ctx := job.jobSpan.Context(); ctx.Valid() {
			job.trace = ctx.Trace
		}
		job.queueSpan = s.obs.Tracer.StartChild(job.jobSpan.Context(), "queue.wait")
		s.jobs[job.id] = job
		s.order = append(s.order, job)
		s.pending = append(s.pending, job)
		s.cond.Signal()
		s.mu.Unlock()
		recoveredCtr(prior).Inc()
	}
}

// jobEntryKey namespaces a whole-job result inside the shared store,
// alongside the per-block entries the engines record.
func jobEntryKey(cacheKey string) string { return "job|" + cacheKey }
