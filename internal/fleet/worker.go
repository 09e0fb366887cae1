package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdtask/internal/engine"
	"mdtask/internal/faultinject"
	"mdtask/internal/obs"
	"mdtask/internal/stage"
)

// WorkerOptions configures a fleet worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8077".
	Coordinator string
	// Name is a display name reported at registration.
	Name string
	// Parallel is the number of concurrent unit executors (< 1: 1).
	Parallel int
	// RegisterWait bounds how long the initial registration retries
	// while the coordinator is unreachable (default 10s) — workers may
	// legitimately boot before their coordinator.
	RegisterWait time.Duration
	// ControlTimeout bounds control-plane calls — register, heartbeat,
	// lease, result post (default 15s). These carry small payloads; a
	// call that takes longer is stuck, and a stuck heartbeat must fail
	// fast enough to retry before the coordinator's failure detector
	// declares this worker dead.
	ControlTimeout time.Duration
	// TransferTimeout bounds input blob downloads (default 2m).
	TransferTimeout time.Duration
	// MaxTransferBytes bounds the size of one input blob download
	// (default 1 GiB). The transfer-size contract: a whole trajectory or
	// coordinate chunk is the largest legitimate blob, a streamed window
	// is far smaller, and either way a coordinator (or an interloper on
	// its address) must not be able to balloon worker memory with one
	// unbounded response body — nor, through a unit's declared shapes,
	// with the memory a body sizes from them.
	MaxTransferBytes int64
	// Logf, when non-nil, receives worker lifecycle log lines.
	Logf func(format string, args ...interface{})
	// Obs, when non-nil, instruments the worker: kernel spans parented
	// under each lease's coordinator-side span (shipped back with the
	// result), a lease round-trip latency histogram, and a block kernel
	// histogram, all registered on Obs.Metrics (cmd/mdworker serves
	// them at its own /metrics endpoint).
	Obs *obs.Obs
}

// Worker is the pull-based execution agent: it registers with a
// coordinator, heartbeats, leases work units, runs them with the
// in-process kernels, and posts results back. On a 404 from the
// coordinator (restart, or this worker declared dead during a long
// pause) it transparently re-registers under a fresh id.
type Worker struct {
	o    WorkerOptions
	base string
	ctl  *http.Client // control plane: register, heartbeat, lease, result post
	xfer *http.Client // bulk transfers: input blob downloads

	mu   sync.Mutex
	id   string
	resp RegisterResponse

	inputs inputCache

	// Observability handles, all nil-safe (unset when o.Obs is nil).
	tracer     *obs.Tracer
	leaseHist  *obs.Histogram
	kernelHist *obs.Histogram
	leaseRetry *obs.Counter
	hbRetry    *obs.Counter
	postRetry  *obs.Counter

	// UnitsDone counts results the coordinator accepted.
	UnitsDone atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

// StartWorker registers with the coordinator and starts the heartbeat
// and executor loops.
func StartWorker(o WorkerOptions) (*Worker, error) {
	if o.Parallel < 1 {
		o.Parallel = 1
	}
	if o.RegisterWait <= 0 {
		o.RegisterWait = 10 * time.Second
	}
	if o.ControlTimeout <= 0 {
		o.ControlTimeout = 15 * time.Second
	}
	if o.TransferTimeout <= 0 {
		o.TransferTimeout = 2 * time.Minute
	}
	if o.MaxTransferBytes <= 0 {
		o.MaxTransferBytes = 1 << 30
	}
	if o.Logf == nil {
		o.Logf = func(string, ...interface{}) {}
	}
	w := &Worker{
		o:    o,
		base: strings.TrimRight(o.Coordinator, "/"),
		ctl:  &http.Client{Timeout: o.ControlTimeout},
		xfer: &http.Client{Timeout: o.TransferTimeout},
		stop: make(chan struct{}),
	}
	if o.Obs != nil {
		w.tracer = o.Obs.Tracer
		w.leaseHist = o.Obs.Metrics.Histogram("mdtask_fleet_lease_roundtrip_seconds",
			"Latency of lease requests to the coordinator, including grants and empty polls.", nil)
		w.kernelHist = engine.KernelHistogram(o.Obs.Metrics)
		retries := func(op string) *obs.Counter {
			return o.Obs.Metrics.Counter("mdtask_fleet_worker_retries_total",
				"Control-plane calls retried after a transient failure, by operation.", "op", op)
		}
		w.leaseRetry, w.hbRetry, w.postRetry = retries("lease"), retries("heartbeat"), retries("post")
	}
	deadline := time.Now().Add(o.RegisterWait)
	for {
		err := w.register()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("fleet: registering with %s: %w", w.base, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
	w.wg.Add(1 + o.Parallel)
	go w.heartbeatLoop()
	for i := 0; i < o.Parallel; i++ {
		go w.executorLoop()
	}
	return w, nil
}

// ID returns the worker's current coordinator-assigned id.
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// Close stops leasing, waits for in-flight units to finish posting,
// and deregisters so the coordinator requeues nothing.
func (w *Worker) Close() {
	select {
	case <-w.stop:
		return
	default:
	}
	close(w.stop)
	w.wg.Wait()
	req, err := http.NewRequest(http.MethodDelete, w.base+"/v1/workers/"+w.ID(), nil)
	if err == nil {
		if resp, err := w.ctl.Do(req); err == nil {
			resp.Body.Close()
		}
	}
}

// retryDelay computes the nth (0-based) jittered exponential backoff
// delay: base·2ⁿ capped at max, then jittered to 50–100% of that so a
// fleet of workers cut off by one coordinator restart does not retry
// in lockstep.
func retryDelay(attempt int, base, max time.Duration) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// register (re-)registers the worker. Concurrent callers coalesce: if
// another goroutine re-registered since staleID was read, the fresh
// identity is kept.
func (w *Worker) register() error {
	return w.reregister("")
}

func (w *Worker) reregister(staleID string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if staleID != "" && w.id != staleID {
		return nil // someone else already re-registered
	}
	body, err := json.Marshal(RegisterRequest{Name: w.o.Name})
	if err != nil {
		return err
	}
	resp, err := w.ctl.Post(w.base+"/v1/workers", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("fleet: register: coordinator returned %s", resp.Status)
	}
	var rr RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return err
	}
	w.id = rr.ID
	w.resp = rr
	w.o.Logf("fleet worker %s registered with %s (heartbeat %dms, poll %dms)",
		rr.ID, w.base, rr.HeartbeatMillis, rr.PollMillis)
	return nil
}

// intervals returns the advertised cadence.
func (w *Worker) intervals() (heartbeat, poll time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	heartbeat = time.Duration(w.resp.HeartbeatMillis) * time.Millisecond
	poll = time.Duration(w.resp.PollMillis) * time.Millisecond
	if heartbeat <= 0 {
		heartbeat = time.Second
	}
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	return heartbeat, poll
}

// heartbeatLoop keeps the worker alive in the coordinator's failure
// detector. A failed beat is retried on a jittered backoff that stays
// SHORTER than the advertised cadence — after a transient network
// blip the worker races to land a beat before the lease TTL declares
// it dead, instead of idling a full interval.
func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	fails := 0
	for {
		hb, _ := w.intervals()
		wait := hb
		if fails > 0 {
			wait = retryDelay(fails-1, hb/8, hb)
		}
		select {
		case <-w.stop:
			return
		case <-time.After(wait):
		}
		id := w.ID()
		resp, err := w.ctl.Post(w.base+"/v1/workers/"+id+"/heartbeat", "application/json", nil)
		if err != nil {
			fails++
			w.hbRetry.Inc()
			continue
		}
		fails = 0
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			_ = w.reregister(id)
		}
	}
}

// executorLoop pulls and runs units until stopped. Lease errors back
// off exponentially (jittered, capped at 5s) so an unreachable
// coordinator is probed gently; an empty poll keeps the flat
// advertised cadence — no work is not a failure.
func (w *Worker) executorLoop() {
	defer w.wg.Done()
	leaseFails := 0
	for {
		select {
		case <-w.stop:
			return
		default:
		}
		_, poll := w.intervals()
		l, err := w.lease()
		if err != nil {
			w.leaseRetry.Inc()
			wait := retryDelay(leaseFails, poll, 5*time.Second)
			leaseFails++
			select {
			case <-w.stop:
				return
			case <-time.After(wait):
			}
			continue
		}
		leaseFails = 0
		if l == nil {
			select {
			case <-w.stop:
				return
			case <-time.After(poll):
			}
			continue
		}
		res, err := w.execute(l)
		if err != nil {
			// Nack the unit so the coordinator requeues it immediately. A
			// live worker's heartbeats renew every lease it holds, so
			// "leave the lease to expire" is not an option here — the
			// expiry would be pushed out on every beat and the unit would
			// stay pinned to this worker forever. If the nack itself fails
			// to land, the unit is still reclaimed when this worker dies
			// or goes silent (the lease-expiry backstop).
			w.o.Logf("fleet worker %s: unit %s/%d failed: %v", w.ID(), l.Job, l.Unit, err)
			nack := UnitResult{Lease: l.Lease, Job: l.Job, Unit: l.Unit,
				Failed: true, Error: err.Error(), Spans: res.Spans}
			w.post(l.TraceParent, nack)
			continue
		}
		if w.post(l.TraceParent, res) {
			w.UnitsDone.Add(1)
		}
	}
}

// lease pulls one unit; nil means no work available.
func (w *Worker) lease() (*Lease, error) {
	id := w.ID()
	start := time.Now()
	resp, err := w.ctl.Post(w.base+"/v1/workers/"+id+"/lease", "application/json", nil)
	w.leaseHist.Observe(time.Since(start).Seconds())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, nil
	case http.StatusNotFound:
		return nil, w.reregister(id)
	case http.StatusOK:
		var l Lease
		if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
			return nil, err
		}
		return &l, nil
	default:
		return nil, fmt.Errorf("fleet: lease: coordinator returned %s", resp.Status)
	}
}

// execute runs one leased unit's body (stage.Exec) over blobs fetched
// from the coordinator. The unit runs inside a worker.kernel span
// parented under the lease's coordinator-side span (via the lease's
// traceparent); the finished worker-side spans are taken from the local
// tracer and shipped back inside the result, so the coordinator can
// complete the job's trace.
func (w *Worker) execute(l *Lease) (res UnitResult, err error) {
	res = UnitResult{Lease: l.Lease, Job: l.Job, Unit: l.Unit}
	// Chaos hook: `MDTASK_FAULTS='fleet.unit.execute=…'` makes this
	// worker fail units (error), stall on them (sleep), or die outright
	// (crash) — the load harness's chaos scenarios arm it to prove that
	// failed units requeue via the nack path and a killed worker's
	// leases requeue via the failure detector.
	if err := faultinject.Fire("fleet.unit.execute"); err != nil {
		return res, err
	}
	parent, _ := obs.ParseTraceParent(l.TraceParent)
	span := w.tracer.StartChild(parent, "worker.kernel")
	span.SetAttr("job", l.Job)
	span.SetAttr("lease", l.Lease)
	span.SetAttrInt("unit", int64(l.Unit))
	span.SetAttr("kind", l.Kind)
	defer func() {
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.End()
		// Taking the spans here (success or failure) keeps the worker
		// tracer's buffers from accumulating; on failure the executor
		// loop ships them inside the nack so the error is visible in the
		// job's trace.
		res.Spans = w.tracer.Take(span.Context().Trace)
	}()
	tp := ""
	if ctx := span.Context(); ctx.Valid() {
		tp = ctx.TraceParent()
	}
	fetch := func(name string) ([]byte, error) { return w.fetchBlob(l.Job, name, tp) }
	if !l.Stream {
		fetch = func(name string) ([]byte, error) { return w.inputs.blob(w, l.Job, name, tp) }
	}
	// The unit's own sink: the kernel accounts into it, the unit's wall
	// time joins it, and it ships with the result. The body runs as an
	// executor's task does (engine.RunTask), so a panicking unit is a
	// failed one, nacked like any other, and the worker lives on.
	var m engine.Metrics
	if err := engine.RunTask(&m, l.Unit, func() (err error) {
		res.Payload, err = stage.Exec(stage.Unit{Kind: l.Kind, Desc: l.Desc}, stage.Env{
			Env:   engine.Env{Metrics: &m, Tracer: w.tracer, TraceParent: span.Context(), KernelHist: w.kernelHist},
			Fetch: fetch, MaxBlobBytes: w.o.MaxTransferBytes,
		})
		return err
	}); err != nil {
		return res, err
	}
	res.Metrics = m.Snapshot()
	return res, nil
}

// maxAttempts bounds the tries of one operation that fails the same way
// again and again: a worker's post of one result, and the coordinator's
// runs of one unit that a worker reports failed (a unit that fails this
// many times fails its job).
const maxAttempts = 4

// post ships a unit result; false means the result did not land (a
// stale lease was rejected outright, or retries ran out — either way
// the lease expires and the unit is requeued). Transport errors and
// 5xx responses are retried with jittered backoff: the computed block
// is already in hand, and a blip on the result path must not throw the
// kernel work away. A non-empty traceparent is forwarded so the
// coordinator's server span lands in the job's trace.
func (w *Worker) post(traceparent string, res UnitResult) bool {
	body, err := json.Marshal(res)
	if err != nil {
		return false
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodPost, w.base+"/v1/workers/"+w.ID()+"/results", bytes.NewReader(body))
		if err != nil {
			return false
		}
		req.Header.Set("Content-Type", "application/json")
		if traceparent != "" {
			req.Header.Set("traceparent", traceparent)
		}
		resp, err := w.ctl.Do(req)
		retryable := err != nil
		if err == nil {
			if resp.StatusCode == http.StatusOK {
				resp.Body.Close()
				return true
			}
			retryable = resp.StatusCode >= 500
			if !retryable {
				w.o.Logf("fleet worker %s: unit %s/%d rejected: %s", w.ID(), res.Job, res.Unit, resp.Status)
			}
			resp.Body.Close()
		}
		if !retryable || attempt == maxAttempts-1 {
			return false
		}
		w.postRetry.Inc()
		select {
		case <-w.stop:
			return false
		case <-time.After(retryDelay(attempt, 100*time.Millisecond, 2*time.Second)):
		}
	}
}

// readTransfer drains one download under the transfer-size contract:
// at most MaxTransferBytes land in memory, and a longer body is an
// error, not a truncation — a silently clipped payload would fail
// shape validation later with a far less useful message.
func (w *Worker) readTransfer(r io.Reader) ([]byte, error) {
	max := w.o.MaxTransferBytes
	data, err := io.ReadAll(io.LimitReader(r, max+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > max {
		return nil, fmt.Errorf("fleet: transfer exceeds the %d-byte limit", max)
	}
	return data, nil
}

// fetchBlob downloads one input blob of a job, forwarding the unit's
// traceparent (if any) so the fetch shows up in the job's trace on the
// coordinator side.
func (w *Worker) fetchBlob(jobID, name, traceparent string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, w.base+"/v1/fleet/jobs/"+jobID+"/input/"+url.PathEscape(name), nil)
	if err != nil {
		return nil, err
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := w.xfer.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: input %s of job %s: coordinator returned %s", name, jobID, resp.Status)
	}
	return w.readTransfer(resp.Body)
}

// inputCache holds the input blobs of in-memory jobs, each fetched once
// per job per worker whatever the executor parallelism, evicting the
// least recently used job beyond cachedJobs (workers typically serve
// one or two jobs at a time; inputs dominate worker memory).
type inputCache struct {
	mu    sync.Mutex
	jobs  map[string]map[string]*blobEntry
	order []string // LRU, most recent last
}

const cachedJobs = 4

type blobEntry struct {
	mu   sync.Mutex
	data []byte // nil until a fetch succeeds
}

// blob returns one input blob of a job, fetching it on first use.
// Concurrent executors wait on the same fetch, and a failed fetch is
// retried by the next caller instead of replayed.
func (ic *inputCache) blob(w *Worker, jobID, name, traceparent string) ([]byte, error) {
	ic.mu.Lock()
	blobs, ok := ic.jobs[jobID]
	if !ok {
		if len(ic.order) == cachedJobs {
			delete(ic.jobs, ic.order[0])
			ic.order = ic.order[1:]
		}
		if ic.jobs == nil {
			ic.jobs = make(map[string]map[string]*blobEntry)
		}
		blobs = make(map[string]*blobEntry)
		ic.jobs[jobID] = blobs
	}
	ic.order = append(slices.DeleteFunc(ic.order, func(id string) bool { return id == jobID }), jobID)
	e := blobs[name]
	if e == nil {
		e = &blobEntry{}
		blobs[name] = e
	}
	ic.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.data == nil {
		data, err := w.fetchBlob(jobID, name, traceparent)
		if err != nil {
			return nil, err
		}
		e.data = data
	}
	return e.data, nil
}
