package fleet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mdtask/internal/engine"
	"mdtask/internal/obs"
	"mdtask/internal/stage"
)

// Coordinator owns the fleet's state: registered workers, active
// leases, and the jobs being assembled. It is the server half of the
// worker protocol; Handler exposes it over HTTP, Submit is the Go API
// the jobs layer drives it with.
type Coordinator struct {
	opts Options
	// epoch tags this coordinator incarnation in every worker, job and
	// lease id it issues. Sequence numbers restart with the process, so
	// without it a worker that outlived a coordinator crash could find
	// its old id already re-issued to a peer, heartbeat successfully
	// under it and never re-register — two workers sharing one identity
	// — or post an old-incarnation result whose lease, job and unit
	// match a live lease's.
	epoch string

	mu       sync.Mutex
	workers  map[string]*workerState
	jobs     map[string]*Job
	jobOrder []*Job
	leases   map[string]*lease
	wseq     int64
	jseq     int64
	lseq     int64
	closed   bool

	unitsCompleted int64
	requeues       int64
	unitFailures   int64
	workersSeen    int64
	workersLost    int64

	stop    chan struct{}
	sweepWG sync.WaitGroup
}

// workerState tracks one registered worker.
type workerState struct {
	id       string
	name     string
	lastSeen time.Time
	leases   map[string]*lease
}

// lease grants one unit of one job to one worker until deadline.
type lease struct {
	id       string
	job      *Job
	unit     int
	worker   string
	deadline time.Time
	// span is the coordinator-side fleet.lease span, open from grant to
	// outcome (completed, rejected, requeued, or revoked); nil when
	// tracing is off.
	span *obs.Span
}

// endLocked finishes the lease span with its outcome. Callers hold
// the coordinator's mu. Only the first call records: a later call's
// SetAttr and End are ignored on the ended span, so every outcome path
// can call it unconditionally and the first outcome stands.
func (l *lease) endLocked(outcome string) {
	l.span.SetAttr("outcome", outcome)
	l.span.End()
}

// NewCoordinator starts a coordinator (and its failure-detector
// sweeper) with the given options.
func NewCoordinator(opts Options) *Coordinator {
	c := &Coordinator{
		opts:    opts.withDefaults(),
		epoch:   fmt.Sprintf("%08x", uint32(time.Now().UnixNano())),
		workers: make(map[string]*workerState),
		jobs:    make(map[string]*Job),
		leases:  make(map[string]*lease),
		stop:    make(chan struct{}),
	}
	c.sweepWG.Add(1)
	go c.sweeper()
	return c
}

// Close stops the sweeper and aborts every unfinished job.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for _, j := range c.jobOrder {
		j.finishLocked(ErrClosed)
	}
	c.mu.Unlock()
	close(c.stop)
	c.sweepWG.Wait()
}

// Job is one staged plan (internal/stage) being assembled from unit
// results on the fleet.
type Job struct {
	c       *Coordinator
	id      string
	run     *stage.Job
	metrics *engine.Metrics

	pending   []int  // unit queue; requeued units go to the front
	open      []bool // units no result has been recorded for
	remaining int
	requeues  int64
	failures  []int // failed runs per unit, as reported by workers

	// Tracing: span is the fleet.job span (open from admit to finish);
	// lastLease remembers each unit's most recent lease id so a retry's
	// lease span can carry a requeue_of link to the grant it replaces.
	span      *obs.Span
	lastLease []string

	finished bool
	err      error
	doneCh   chan struct{}
	result   any

	// reads counts the blob reads (blobOf) that found the job in the
	// table and may still be encoding from its plan's input; Drop
	// waits for them.
	reads sync.WaitGroup
}

// Result returns the assembled result of a completed job: whatever its
// plan's Assemble built.
func (j *Job) Result() any {
	j.c.mu.Lock()
	defer j.c.mu.Unlock()
	return j.result
}

// Wait blocks until the job finishes (assembled, aborted, or the
// coordinator closed) and returns its terminal error. The optional
// cancel flag is polled cooperatively; once it reports true the job is
// aborted and Wait returns ErrAborted.
func (j *Job) Wait(cancel func() bool) error {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		if cancel != nil && cancel() {
			j.c.Abort(j)
		}
		select {
		case <-j.doneCh:
			// err is written before doneCh closes (same critical
			// section), so this read is ordered by the channel close.
			return j.err
		case <-tick.C:
		}
	}
}

// finishLocked moves the job to its terminal state. Callers hold c.mu.
func (j *Job) finishLocked(err error) {
	if j.finished {
		return
	}
	j.finished = true
	j.err = err
	j.pending = nil
	if err != nil {
		j.span.SetAttr("error", err.Error())
	}
	j.span.SetAttrInt("requeues", j.requeues)
	j.span.End()
	close(j.doneCh)
}

// Submit schedules a staged plan's units. The block store is consulted
// before any lease is granted (stage.Start): units whose content
// address is already cached are recorded here and never enter the
// queue, so a job sharing input with an earlier one — whatever engine
// or worker computed it — fans out only its missing units. Each unit's
// accounting folds into m as its result arrives (nil m: discarded);
// parent, when valid, is the submitter's span the job's trace nests
// under.
func (c *Coordinator) Submit(plan stage.Plan, m *engine.Metrics, parent obs.SpanContext) (*Job, error) {
	run := stage.Start(plan, c.opts.BlockStore, m)
	units := run.Units()
	j := &Job{
		c:         c,
		run:       run,
		metrics:   m,
		pending:   run.Missing(),
		open:      make([]bool, len(units)),
		remaining: len(run.Missing()),
		lastLease: make([]string, len(units)),
		failures:  make([]int, len(units)),
		doneCh:    make(chan struct{}),
	}
	for _, i := range j.pending {
		j.open[i] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	c.jseq++
	j.id = fmt.Sprintf("fj-%s-%06d", c.epoch, c.jseq)
	j.span = c.opts.Tracer.StartChild(parent, "fleet.job")
	j.span.SetAttr("fleet_job", j.id)
	j.span.SetAttrInt("units", int64(len(units)))
	j.span.SetAttrInt("units_cached", int64(len(units)-j.remaining))
	c.jobs[j.id] = j
	c.jobOrder = append(c.jobOrder, j)
	if j.remaining == 0 {
		j.assembleLocked()
	}
	return j, nil
}

// Abort cancels a job: pending units are dropped, Wait returns
// ErrAborted, and any in-flight leases become stale. Aborting a
// finished job is a no-op.
func (c *Coordinator) Abort(j *Job) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !j.finished {
		c.revokeJobLeasesLocked(j)
		j.finishLocked(ErrAborted)
	}
}

// Drop removes a finished (or abandoned) job from the coordinator so
// its input payload and results can be collected. Dropping an
// unfinished job aborts it first. Drop returns once no blob read of the
// job is in flight, so from then on nothing the coordinator does reads
// the plan's input, and its owner may reuse that memory.
func (c *Coordinator) Drop(j *Job) {
	c.mu.Lock()
	if !j.finished {
		c.revokeJobLeasesLocked(j)
		j.finishLocked(ErrAborted)
	}
	delete(c.jobs, j.id)
	for i, o := range c.jobOrder {
		if o == j {
			c.jobOrder = append(c.jobOrder[:i], c.jobOrder[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	j.reads.Wait()
}

// revokeJobLeasesLocked retires every active lease of one job without
// requeueing (the job is going away). Callers hold c.mu.
func (c *Coordinator) revokeJobLeasesLocked(j *Job) {
	for id, l := range c.leases {
		if l.job == j {
			delete(c.leases, id)
			if w, ok := c.workers[l.worker]; ok {
				delete(w.leases, id)
			}
			l.endLocked("revoked")
		}
	}
}

// register admits a worker and returns its identity and cadence.
func (c *Coordinator) register(req RegisterRequest) RegisterResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wseq++
	c.workersSeen++
	w := &workerState{
		id:       fmt.Sprintf("w-%s-%06d", c.epoch, c.wseq),
		name:     req.Name,
		lastSeen: time.Now(),
		leases:   make(map[string]*lease),
	}
	c.workers[w.id] = w
	return RegisterResponse{
		ID:              w.id,
		LeaseTTLMillis:  c.opts.LeaseTTL.Milliseconds(),
		HeartbeatMillis: c.opts.HeartbeatEvery.Milliseconds(),
		PollMillis:      c.opts.PollEvery.Milliseconds(),
	}
}

// heartbeat refreshes a worker's liveness; false means the worker is
// unknown (likely declared dead) and must re-register.
func (c *Coordinator) heartbeat(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if ok {
		c.touchLocked(w, time.Now())
	}
	return ok
}

// touchLocked records worker contact: liveness refreshes, and every
// lease the worker holds renews to a fresh TTL — a unit slower than
// LeaseTTL on a live, heartbeating worker is never revoked. The lease
// deadline therefore only fires for workers that also went silent, as
// a backstop narrower than the heartbeat detector. Callers hold c.mu.
func (c *Coordinator) touchLocked(w *workerState, now time.Time) {
	w.lastSeen = now
	for _, l := range w.leases {
		l.deadline = now.Add(c.opts.LeaseTTL)
	}
}

// deregister gracefully removes a worker, requeueing its leases
// immediately.
func (c *Coordinator) deregister(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok {
		return false
	}
	for _, l := range w.leases {
		c.requeueLocked(l)
	}
	delete(c.workers, id)
	return true
}

// lease grants the oldest pending unit to the worker. A nil lease with
// ok=true means no work is available right now.
func (c *Coordinator) lease(workerID string) (*Lease, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[workerID]
	if !ok {
		return nil, ErrUnknownWorker
	}
	now := time.Now()
	c.touchLocked(w, now)
	for _, j := range c.jobOrder {
		if j.finished || len(j.pending) == 0 {
			continue
		}
		unit := j.pending[0]
		j.pending = j.pending[1:]
		c.lseq++
		l := &lease{
			id:       fmt.Sprintf("l-%s-%06d", c.epoch, c.lseq),
			job:      j,
			unit:     unit,
			worker:   workerID,
			deadline: now.Add(c.opts.LeaseTTL),
		}
		l.span = c.opts.Tracer.StartChild(j.span.Context(), "fleet.lease")
		l.span.SetAttr("lease", l.id)
		l.span.SetAttr("worker", workerID)
		l.span.SetAttrInt("unit", int64(unit))
		if prev := j.lastLease[unit]; prev != "" {
			// This grant retries a unit whose earlier lease was revoked
			// (expiry or worker death) — link the retry to the original so
			// a SIGKILL-requeue reads as one causal chain in the trace.
			l.span.SetAttr("requeue_of", prev)
		}
		j.lastLease[unit] = l.id
		c.leases[l.id] = l
		w.leases[l.id] = l
		u := j.run.Units()[unit]
		out := &Lease{
			Lease:          l.id,
			Job:            j.id,
			Unit:           unit,
			Kind:           u.Kind,
			Desc:           u.Desc,
			Stream:         u.Stream,
			DeadlineMillis: l.deadline.UnixMilli(),
		}
		if ctx := l.span.Context(); ctx.Valid() {
			out.TraceParent = ctx.TraceParent()
		}
		return out, nil
	}
	return nil, nil
}

// blobOf serves one input blob of a job. The plan encodes it outside
// the coordinator lock — it may read a file or a remote source — so a
// slow fetch never stalls the lease/heartbeat path. The read is counted
// while the job is still in the table, under the lock Drop removes it
// with, so Drop waits for every read that found the job.
func (c *Coordinator) blobOf(jobID, name string) ([]byte, error) {
	c.mu.Lock()
	j, ok := c.jobs[jobID]
	if ok {
		j.reads.Add(1)
	}
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fleet: no such job %q", jobID)
	}
	defer j.reads.Done()
	return j.run.Blob(name)
}

// complete records one unit result. The lease must still be held: a
// revoked lease (expired, worker dead, job gone) returns ErrStaleLease
// and the payload is discarded — the requeued copy of the unit is (or
// was) completed by someone else.
func (c *Coordinator) complete(workerID string, res UnitResult) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.leases[res.Lease]
	if !ok || l.worker != workerID || l.job.id != res.Job || l.unit != res.Unit {
		return ErrStaleLease
	}
	if res.Failed {
		// A failure nack hands the lease back immediately. This must not
		// wait for lease expiry: expiry only fires on silent workers —
		// every heartbeat from this (live) worker renews the lease — so
		// without the nack the unit would stay pinned to a worker that
		// already gave up on it.
		if w, ok := c.workers[workerID]; ok {
			c.touchLocked(w, time.Now())
		}
		if res.Error != "" {
			l.span.SetAttr("error", res.Error)
		}
		c.opts.Tracer.Import(res.Spans)
		c.unitFailures++
		// A unit that fails every time would be requeued for as long as
		// its job lives: its maxAttempts-th failure fails the job
		// instead. Only reported failures count; a lease revoked on
		// expiry or a silent worker's death says nothing of the unit.
		if j := l.job; !j.finished && j.open[l.unit] {
			if j.failures[l.unit]++; j.failures[l.unit] >= maxAttempts {
				c.revokeJobLeasesLocked(j)
				j.finishLocked(fmt.Errorf("fleet: unit %d failed %d times: %s", l.unit, maxAttempts, res.Error))
				return nil
			}
		}
		c.requeueLocked(l)
		return nil
	}
	delete(c.leases, l.id)
	if w, ok := c.workers[workerID]; ok {
		delete(w.leases, l.id)
		c.touchLocked(w, time.Now())
	}
	j := l.job
	if j.finished || !j.open[l.unit] {
		l.endLocked("stale")
		return ErrStaleLease
	}
	recSpan := c.opts.Tracer.StartChild(l.span.Context(), "fleet.record")
	d, err := stage.Check(j.run.Units()[l.unit], res.Payload, res.Metrics)
	if err != nil {
		// A malformed payload is a worker bug, not lost work: requeue
		// the unit so a healthy worker redoes it.
		recSpan.SetAttr("error", err.Error())
		recSpan.End()
		l.endLocked("rejected")
		j.pending = append([]int{l.unit}, j.pending...)
		return err
	}
	// The worker's spans (its kernel span and children) are already
	// parented under this lease's span; importing them completes the
	// cross-process trace.
	c.opts.Tracer.Import(res.Spans)
	j.open[l.unit] = false
	j.remaining--
	c.unitsCompleted++
	// Only checked payloads reach the fold — an aborted job bailed out
	// above with ErrStaleLease — so no partial result is ever observable
	// under a content address.
	j.run.Fold(l.unit, d)
	recSpan.End()
	l.endLocked("completed")
	if j.remaining == 0 {
		j.assembleLocked()
	}
	return nil
}

// assembleLocked builds the job's final result from its recorded
// units. Callers hold c.mu.
func (j *Job) assembleLocked() {
	j.result = j.run.Result()
	j.metrics.RecordStage()
	j.finishLocked(nil)
}

// requeueLocked revokes one lease and puts its unit back at the front
// of the queue. Callers hold c.mu.
func (c *Coordinator) requeueLocked(l *lease) {
	delete(c.leases, l.id)
	if w, ok := c.workers[l.worker]; ok {
		delete(w.leases, l.id)
	}
	j := l.job
	if j.finished || !j.open[l.unit] {
		l.endLocked("stale")
		return
	}
	l.endLocked("requeued")
	j.pending = append([]int{l.unit}, j.pending...)
	j.requeues++
	c.requeues++
}

// sweeper is the failure detector: it declares silent workers dead
// (requeueing all their leases) and revokes individually expired
// leases.
func (c *Coordinator) sweeper() {
	defer c.sweepWG.Done()
	tick := time.NewTicker(c.opts.SweepEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.sweep(time.Now())
		}
	}
}

// sweep runs one failure-detection pass at the given instant.
func (c *Coordinator) sweep(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) > c.opts.HeartbeatTTL {
			for _, l := range w.leases {
				c.requeueLocked(l)
			}
			delete(c.workers, id)
			c.workersLost++
		}
	}
	for _, l := range c.leases {
		if now.After(l.deadline) {
			c.requeueLocked(l)
		}
	}
}

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() StatsView {
	c.mu.Lock()
	defer c.mu.Unlock()
	active := 0
	for _, j := range c.jobOrder {
		if !j.finished {
			active++
		}
	}
	now := time.Now()
	var list []WorkerView
	for _, w := range c.workers {
		list = append(list, WorkerView{
			ID:           w.id,
			Name:         w.name,
			ActiveLeases: len(w.leases),
			LastSeenMS:   now.Sub(w.lastSeen).Milliseconds(),
		})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
	return StatsView{
		Workers:        len(c.workers),
		ActiveLeases:   len(c.leases),
		JobsActive:     active,
		UnitsCompleted: c.unitsCompleted,
		Requeues:       c.requeues,
		UnitFailures:   c.unitFailures,
		WorkersSeen:    c.workersSeen,
		WorkersLost:    c.workersLost,
		WorkerList:     list,
	}
}
