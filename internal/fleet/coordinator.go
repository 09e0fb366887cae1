package fleet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mdtask/internal/engine"
	"mdtask/internal/graph"
	"mdtask/internal/hausdorff"
	"mdtask/internal/leaflet"
	"mdtask/internal/linalg"
	"mdtask/internal/obs"
	"mdtask/internal/psa"
	"mdtask/internal/traj"
)

// Coordinator owns the fleet's state: registered workers, active
// leases, and the jobs being assembled. It is the server half of the
// worker protocol; Handler exposes it over HTTP, the Submit* methods
// are the Go API the jobs layer drives it with.
type Coordinator struct {
	opts Options
	// epoch tags this coordinator incarnation in every worker id it
	// issues. Sequence numbers restart with the process, so without it
	// a worker that outlived a coordinator crash could find its old id
	// already re-issued to a peer, heartbeat successfully under it and
	// never re-register — two workers sharing one identity.
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
// the coordinator's mu; ending twice no-ops, so every outcome path can
// call it unconditionally.
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

// Job is one fleet-scheduled analysis being assembled from unit
// results. Exactly one of the psa/leaflet field sets is populated.
type Job struct {
	c        *Coordinator
	id       string
	analysis string
	input    []byte

	// PSA
	n       int
	blocks  []psa.Block
	sym     bool
	method  hausdorff.Method
	results []psa.BlockResult
	// Streamed PSA: refs replaces the eagerly encoded input — workers
	// fetch window-sized MDT blobs on demand — and window is the frame
	// budget per window.
	refs   traj.RefEnsemble
	window int

	// Leaflet
	nAtoms  int
	tiles   []leaflet.BlockSpec
	cutoff  float64
	tree    bool
	parts   [][]graph.Component
	edges   int64
	shuffle int64

	metrics *engine.Metrics

	// keys holds the per-unit content addresses in the coordinator's
	// block store (nil when the store is absent or the input could not
	// be digested — the job then runs fully uncached).
	keys []string

	pending   []int // unit queue; requeued units go to the front
	done      []bool
	remaining int
	requeues  int64

	// Tracing: span is the fleet.job span (open from admit to finish);
	// traceParent is the submitter's context it nests under; lastLease
	// remembers each unit's most recent lease id so a retry's lease
	// span can carry a requeue_of link to the grant it replaces.
	span        *obs.Span
	traceParent obs.SpanContext
	lastLease   []string

	finished bool
	err      error
	doneCh   chan struct{}

	matrix  *psa.Matrix
	leafRes *leaflet.Result
}

// ID returns the job's fleet-scoped identifier.
func (j *Job) ID() string { return j.id }

// Requeues returns how many of the job's units were revoked and
// rescheduled (lease expiry or worker death).
func (j *Job) Requeues() int64 {
	j.c.mu.Lock()
	defer j.c.mu.Unlock()
	return j.requeues
}

// Matrix returns the assembled PSA matrix of a completed PSA job.
func (j *Job) Matrix() *psa.Matrix {
	j.c.mu.Lock()
	defer j.c.mu.Unlock()
	return j.matrix
}

// Leaflet returns the assembled result of a completed Leaflet job.
func (j *Job) Leaflet() *leaflet.Result {
	j.c.mu.Lock()
	defer j.c.mu.Unlock()
	return j.leafRes
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

// SubmitPSARefs schedules an all-pairs Hausdorff job over the ensemble
// with block edge n1 (the schedule of psa.Partition). Only the
// Symmetric, Method and MaxResidentFrames fields of opts apply —
// cancellation and metrics run coordinator-side: each unit's metrics
// snapshot is folded into m as its result arrives (nil m: accounting is
// discarded). With opts.MaxResidentFrames set the job is
// streamed: no whole-ensemble payload is encoded — workers fetch
// window-sized MDT blobs on demand (GET …/input?traj=I&win=K), encoded
// from the refs at request time, so neither side ever materializes an
// ensemble.
func (c *Coordinator) SubmitPSARefs(refs traj.RefEnsemble, n1 int, opts psa.Opts, m *engine.Metrics) (*Job, error) {
	if err := refs.Validate(); err != nil {
		return nil, err
	}
	blocks, err := psa.Partition(len(refs), n1, opts.Symmetric)
	if err != nil {
		return nil, err
	}
	j := &Job{
		c:        c,
		analysis: AnalysisPSA,
		n:        len(refs),
		blocks:   blocks,
		sym:      opts.Symmetric,
		method:   opts.Method,
		results:  make([]psa.BlockResult, len(blocks)),
		refs:     refs,
		metrics:  m,
		// The submitter's span context (the jobs layer's engine.fleet
		// span) parents the coordinator-side job span.
		traceParent: opts.TraceParent,
	}
	if opts.MaxResidentFrames > 0 {
		j.window = opts.MaxResidentFrames
	} else {
		ens, err := refs.Load()
		if err != nil {
			return nil, err
		}
		j.input, err = EncodeEnsemble(ens)
		if err != nil {
			return nil, err
		}
	}
	// Content-address the units so admit can serve already-cached blocks
	// without leasing them. The keys are the very same ones the
	// in-process engines use, so blocks cross between engines freely. A
	// digest failure (unreadable source) just disables caching.
	if c.opts.BlockStore != nil {
		keys := make([]string, len(blocks))
		for i, b := range blocks {
			k, kerr := psa.BlockKey(refs, b, opts.Symmetric)
			if kerr != nil {
				keys = nil
				break
			}
			keys[i] = k
		}
		j.keys = keys
	}
	return c.admit(j, len(blocks))
}

// SubmitLeaflet schedules a Leaflet Finder job over the coordinate
// set: the live tiles of a 2-D grid of at most maxTasks tiles
// (leaflet.LiveBlocks), each computing partial connected components
// (tree selects BallTree edge discovery); tiles that cannot hold an
// edge are never leased. Per-unit accounting folds into m as results
// arrive.
// An optional trailing span context parents the job's trace under the
// submitter's span (variadic so pre-tracing call sites read unchanged;
// only the first value is used).
func (c *Coordinator) SubmitLeaflet(coords []linalg.Vec3, cutoff float64, maxTasks int, tree bool, m *engine.Metrics, parent ...obs.SpanContext) (*Job, error) {
	if len(coords) == 0 {
		return nil, fmt.Errorf("fleet: empty coordinate set")
	}
	if cutoff <= 0 {
		return nil, fmt.Errorf("fleet: cutoff must be positive, got %g", cutoff)
	}
	tiles := leaflet.LiveBlocks(coords, cutoff, maxTasks)
	j := &Job{
		c:        c,
		analysis: AnalysisLeaflet,
		input:    EncodeCoords(coords),
		nAtoms:   len(coords),
		tiles:    tiles,
		cutoff:   cutoff,
		tree:     tree,
		parts:    make([][]graph.Component, len(tiles)),
		metrics:  m,
	}
	if len(parent) > 0 {
		j.traceParent = parent[0]
	}
	if c.opts.BlockStore != nil {
		digest := leaflet.CoordsDigest(coords)
		keys := make([]string, len(tiles))
		for i, t := range tiles {
			keys[i] = leaflet.TileKey(digest, cutoff, tree, t.RLo, t.RHi, t.CLo, t.CHi)
		}
		j.keys = keys
	}
	return c.admit(j, len(tiles))
}

// admit registers a prepared job with units work units. The block
// store is consulted before any lease is granted: units whose content
// address is already cached are recorded here and never enter the
// queue, so a job sharing input with an earlier one — whatever engine
// or worker computed it — fans out only its missing units.
func (c *Coordinator) admit(j *Job, units int) (*Job, error) {
	j.done = make([]bool, units)
	j.remaining = units
	j.pending = make([]int, 0, units)
	store := c.opts.BlockStore
	for i := 0; i < units; i++ {
		if store != nil && j.keys != nil {
			if v, ok := store.Get(j.keys[i]); ok && j.prefill(i, v) {
				j.done[i] = true
				j.remaining--
				continue
			}
			j.metrics.AddBlockCache(0, 1, 0)
		}
		j.pending = append(j.pending, i)
	}
	j.doneCh = make(chan struct{})
	j.lastLease = make([]string, units)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	c.jseq++
	j.id = fmt.Sprintf("fj-%06d", c.jseq)
	j.span = c.opts.Tracer.StartChild(j.traceParent, "fleet.job")
	j.span.SetAttr("fleet_job", j.id)
	j.span.SetAttr("analysis", j.analysis)
	j.span.SetAttrInt("units", int64(units))
	j.span.SetAttrInt("units_cached", int64(units-j.remaining))
	c.jobs[j.id] = j
	c.jobOrder = append(c.jobOrder, j)
	if j.remaining == 0 {
		j.assembleLocked()
	}
	return j, nil
}

// prefill records one unit from a cached store value, reporting whether
// the value had the expected shape (a mismatch leaves the unit to be
// computed normally). It runs before the job is registered, so no lock
// is held.
func (j *Job) prefill(unit int, v any) bool {
	switch j.analysis {
	case AnalysisPSA:
		vals, ok := v.([]float64)
		if !ok || len(vals) != j.blocks[unit].TaskPairs(j.sym) {
			return false
		}
		j.results[unit] = psa.BlockResult{Block: j.blocks[unit], Values: vals, Symmetric: j.sym}
		j.metrics.AddBlockCache(1, 0, int64(len(vals))*8)
	case AnalysisLeaflet:
		tp, ok := v.(leaflet.TilePartial)
		if !ok {
			return false
		}
		j.parts[unit] = tp.Comps
		j.edges += tp.Edges
		j.shuffle += graph.ComponentBytes(tp.Comps)
		j.metrics.AddBlockCache(1, 0, tp.SizeBytes())
	default:
		return false
	}
	return true
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
// unfinished job aborts it first.
func (c *Coordinator) Drop(j *Job) {
	c.mu.Lock()
	defer c.mu.Unlock()
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
			id:       fmt.Sprintf("l-%06d", c.lseq),
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
		out := &Lease{
			Lease:          l.id,
			Job:            j.id,
			Unit:           unit,
			Analysis:       j.analysis,
			DeadlineMillis: l.deadline.UnixMilli(),
		}
		if ctx := l.span.Context(); ctx.Valid() {
			out.TraceParent = ctx.TraceParent()
		}
		switch j.analysis {
		case AnalysisPSA:
			b := j.blocks[unit]
			out.PSA = &PSAUnit{
				I0: b.I0, I1: b.I1, J0: b.J0, J1: b.J1,
				Symmetric: j.sym, Method: j.method.String(),
				Window: j.window,
			}
			if j.window > 0 {
				for _, ix := range b.TrajIndices() {
					r := j.refs[ix]
					out.PSA.Trajs = append(out.PSA.Trajs, PSATrajShape{
						Index: ix, Name: r.Name(), NAtoms: r.NAtoms(), NFrames: r.NFrames(),
					})
				}
			}
		case AnalysisLeaflet:
			t := j.tiles[unit]
			out.Leaflet = &LeafletUnit{
				RLo: t.RLo, RHi: t.RHi, CLo: t.CLo, CHi: t.CHi,
				Cutoff: j.cutoff, Tree: j.tree,
			}
		}
		return out, nil
	}
	return nil, nil
}

// inputOf serves a job's input payload. Streamed jobs have none (ok is
// false): their workers fetch windows through windowOf.
func (c *Coordinator) inputOf(jobID string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[jobID]
	if !ok || j.input == nil {
		return nil, false
	}
	return j.input, true
}

// windowOf encodes one window of one trajectory of a streamed PSA job
// as an MDT blob. The encode runs outside the coordinator lock — it
// may read a file or a remote source — so a slow window fetch never
// stalls the lease/heartbeat path.
func (c *Coordinator) windowOf(jobID string, trajIx, win int) ([]byte, error) {
	c.mu.Lock()
	j, ok := c.jobs[jobID]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("fleet: no such job %q", jobID)
	}
	w := j.window
	if w <= 0 {
		c.mu.Unlock()
		return nil, fmt.Errorf("fleet: job %s is not streamed", jobID)
	}
	if trajIx < 0 || trajIx >= len(j.refs) {
		c.mu.Unlock()
		return nil, fmt.Errorf("fleet: job %s has no trajectory %d", jobID, trajIx)
	}
	r := j.refs[trajIx]
	c.mu.Unlock()
	if win < 0 || win >= r.NumWindows(w) {
		return nil, fmt.Errorf("fleet: trajectory %d of job %s has no window %d", trajIx, jobID, win)
	}
	return r.EncodeMDTWindow(win*w, w, 8)
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
		c.requeueLocked(l)
		return nil
	}
	delete(c.leases, l.id)
	if w, ok := c.workers[workerID]; ok {
		delete(w.leases, l.id)
		c.touchLocked(w, time.Now())
	}
	j := l.job
	if j.finished || j.done[l.unit] {
		l.endLocked("stale")
		return ErrStaleLease
	}
	recSpan := c.opts.Tracer.StartChild(l.span.Context(), "fleet.record")
	if err := j.recordLocked(l.unit, res); err != nil {
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
	j.done[l.unit] = true
	j.remaining--
	c.unitsCompleted++
	// Record the validated unit into the block store. Only complete,
	// shape-checked payloads reach this point — an aborted job bails out
	// above with ErrStaleLease — so no partial result is ever observable
	// under a content address.
	if store := c.opts.BlockStore; store != nil && j.keys != nil {
		switch j.analysis {
		case AnalysisPSA:
			vals := j.results[l.unit].Values
			store.Put(j.keys[l.unit], vals, int64(len(vals))*8)
		case AnalysisLeaflet:
			tp := leaflet.TilePartial{Comps: res.Comps, Edges: res.Edges}
			store.Put(j.keys[l.unit], tp, tp.SizeBytes())
		}
	}
	j.metrics.Add(res.Metrics)
	recSpan.End()
	l.endLocked("completed")
	if j.remaining == 0 {
		j.assembleLocked()
	}
	return nil
}

// recordLocked validates and stores one unit's payload, or rejects it
// and records nothing. Its metrics must pass Snapshot.Valid, and a
// Leaflet partial must be canonical (graph.CheckComponents): the
// coordinator caches it under the same tile key in-process runs read,
// and their reduce relies on that form. Callers hold c.mu.
func (j *Job) recordLocked(unit int, res UnitResult) error {
	if err := res.Metrics.Valid(); err != nil {
		return fmt.Errorf("fleet: unit %d: %w", unit, err)
	}
	if res.Edges < 0 {
		return fmt.Errorf("fleet: unit %d reported a negative edge count", unit)
	}
	switch j.analysis {
	case AnalysisPSA:
		vals, err := UnpackFloats(res.ValuesB64)
		if err != nil {
			return err
		}
		b := j.blocks[unit]
		if want := b.TaskPairs(j.sym); len(vals) != want {
			return fmt.Errorf("fleet: unit %d returned %d values, want %d", unit, len(vals), want)
		}
		j.results[unit] = psa.BlockResult{Block: b, Values: vals, Symmetric: j.sym}
	case AnalysisLeaflet:
		if err := graph.CheckComponents(j.nAtoms, res.Comps); err != nil {
			return fmt.Errorf("fleet: unit %d: %w", unit, err)
		}
		j.parts[unit] = res.Comps
		j.edges += res.Edges
		j.shuffle += graph.ComponentBytes(res.Comps)
	}
	return nil
}

// assembleLocked builds the job's final result from its recorded
// units. Callers hold c.mu.
func (j *Job) assembleLocked() {
	switch j.analysis {
	case AnalysisPSA:
		j.matrix = psa.Assemble(j.n, j.results)
	case AnalysisLeaflet:
		j.leafRes = leaflet.FromPartials(j.nAtoms, j.parts, leaflet.Stats{
			Tasks:        len(j.tiles),
			Edges:        j.edges,
			ShuffleBytes: j.shuffle,
		})
	}
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
	if j.finished || j.done[l.unit] {
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
