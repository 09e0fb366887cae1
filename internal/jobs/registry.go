package jobs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mdtask/internal/blockstore"
	"mdtask/internal/engine"
	"mdtask/internal/obs"
)

// ErrCancelled is returned by runners whose job was cooperatively
// cancelled mid-run; the scheduler maps it to StateCancelled.
var ErrCancelled = errors.New("jobs: job cancelled")

// RunContext is the per-run handle a Runner receives: a cooperative
// cancellation flag polled at block boundaries, the live metrics sink
// of whatever engine the runner brought up (so a running job's status
// can report progress), and the content-addressed block store the run
// consults (nil on the uncached one-shot path).
type RunContext struct {
	cancelled atomic.Bool
	live      atomic.Pointer[engine.Metrics]
	store     atomic.Pointer[blockstore.Store]

	// Observability of the run, set by the owner before the runner
	// starts (the scheduler points obs at its shared bundle and span at
	// the job's run span; the one-shot CLI path leaves both zero, which
	// disables tracing). Plain fields: every handoff to the running
	// goroutine is ordered by the scheduler's queue mutex.
	obs  *obs.Obs
	span obs.SpanContext
}

// NewRunContext returns a context with a fresh metrics sink.
func NewRunContext() *RunContext {
	rc := &RunContext{}
	rc.live.Store(&engine.Metrics{})
	return rc
}

// Cancel requests cooperative cancellation.
func (rc *RunContext) Cancel() { rc.cancelled.Store(true) }

// Cancelled reports whether cancellation was requested. Runners (and
// the engine task bodies they configure) poll it at block boundaries.
func (rc *RunContext) Cancelled() bool { return rc.cancelled.Load() }

// Metrics returns the current live metrics sink.
func (rc *RunContext) Metrics() *engine.Metrics { return rc.live.Load() }

// SetMetrics publishes an engine-owned sink (the executor's) as the
// run's live metrics.
func (rc *RunContext) SetMetrics(m *engine.Metrics) {
	if m != nil {
		rc.live.Store(m)
	}
}

// SetBlockStore attaches the content-addressed block store the run's
// engines consult and record into (the scheduler sets its own at
// submission; nil leaves the run uncached).
func (rc *RunContext) SetBlockStore(s *blockstore.Store) {
	if s != nil {
		rc.store.Store(s)
	}
}

// BlockStore returns the run's block store, or nil when uncached.
func (rc *RunContext) BlockStore() *blockstore.Store { return rc.store.Load() }

// SetObs attaches the run's observability bundle and the span context
// engine-level spans parent under. Must be called before the runner
// starts; nil o leaves tracing disabled.
func (rc *RunContext) SetObs(o *obs.Obs, parent obs.SpanContext) {
	rc.obs = o
	rc.span = parent
}

// Tracer returns the run's tracer (nil when tracing is disabled —
// every method of a nil tracer no-ops).
func (rc *RunContext) Tracer() *obs.Tracer {
	if rc.obs == nil {
		return nil
	}
	return rc.obs.Tracer
}

// TraceParent returns the span context engine spans parent under
// (zero when tracing is disabled).
func (rc *RunContext) TraceParent() obs.SpanContext { return rc.span }

// Env is the run's task environment, the one every engine's task
// bodies get: its cancellation, its tracer with parent as the span the
// bodies' spans nest under, and the process's block kernel histogram
// (none on the one-shot path, which has no observability bundle).
// Metrics is left to whoever owns the sink: psa.Run points it at the
// executor's, a staged transport at each unit's own.
func (rc *RunContext) Env(parent obs.SpanContext) engine.Env {
	env := engine.Env{Cancel: rc.Cancelled, Tracer: rc.Tracer(), TraceParent: parent}
	if rc.obs != nil {
		env.KernelHist = engine.KernelHistogram(rc.obs.Metrics)
	}
	return env
}

// Runner executes one analysis job over already-resolved input and
// returns its result. Runners must poll rc for cancellation and leave
// engine accounting reachable through rc.Metrics().
type Runner func(rc *RunContext, spec Spec, in *Input) (*Result, error)

// Registry maps runner names (RunnerName(analysis, engine)) to runners.
// DefaultRegistry fills it from the engine table (engines.go), the one
// place an engine name becomes an engine.
type Registry struct {
	mu      sync.RWMutex
	runners map[string]Runner
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{runners: make(map[string]Runner)}
}

// Register adds a named runner; registering a nil runner or a duplicate
// name is an error.
func (r *Registry) Register(name string, fn Runner) error {
	if fn == nil {
		return fmt.Errorf("jobs: nil runner %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.runners[name]; dup {
		return fmt.Errorf("jobs: duplicate runner %q", name)
	}
	r.runners[name] = fn
	return nil
}

// Lookup returns the runner registered under name.
func (r *Registry) Lookup(name string) (Runner, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.runners[name]
	return fn, ok
}

// Resolve normalizes a spec and loads or generates its input — the
// first half of a one-shot run, split out so callers can report (and
// time) input loading separately from engine execution.
func Resolve(spec Spec) (Spec, *Input, error) {
	norm, err := spec.Normalized()
	if err != nil {
		return Spec{}, nil, err
	}
	in, err := ResolveInput(norm)
	if err != nil {
		return Spec{}, nil, err
	}
	return norm, in, nil
}

// Run executes an already-resolved spec synchronously on the calling
// goroutine, returning the result and the engine metrics of the run.
// The run is uncached; use RunCached to attach a block store.
func Run(reg *Registry, spec Spec, in *Input) (*Result, engine.Snapshot, error) {
	return RunCached(reg, spec, in, nil)
}

// RunCached is Run with a content-addressed block store attached: every
// engine's task bodies consult store before running their kernels and
// record completed results into it, so consecutive runs sharing content
// (same input on another engine, or a grown ensemble) recompute only
// missing blocks. A nil store runs uncached.
func RunCached(reg *Registry, spec Spec, in *Input, store *blockstore.Store) (*Result, engine.Snapshot, error) {
	name := RunnerName(spec.Analysis, spec.Engine)
	runner, ok := reg.Lookup(name)
	if !ok {
		return nil, engine.Snapshot{}, fmt.Errorf("jobs: no runner registered for %q", name)
	}
	rc := NewRunContext()
	rc.SetBlockStore(store)
	res, err := runner(rc, spec, in)
	return res, rc.Metrics().Snapshot(), err
}

// RunLocal is Resolve followed by Run — the one-shot path for callers
// that don't need the two phases separated.
func RunLocal(reg *Registry, spec Spec) (*Input, *Result, engine.Snapshot, error) {
	norm, in, err := Resolve(spec)
	if err != nil {
		return nil, nil, engine.Snapshot{}, err
	}
	res, metrics, err := Run(reg, norm, in)
	return in, res, metrics, err
}
