package leaflet

import (
	"mdtask/internal/blockstore"
	"mdtask/internal/engine"
	"mdtask/internal/obs"
)

// Option configures a run; the zero set of options is a plain uncached,
// untraced, uncancellable run.
type Option func(*runOpts)

type runOpts struct {
	cancel func() bool
	// metrics is the executor's sink (set by Run), where tile-cache
	// lookups are accounted.
	metrics *engine.Metrics

	// Tile cache (WithBlockCache): the content-addressed store the
	// Parallel-CC / Tree-Search tile bodies consult and the coordinate
	// digest tiles are keyed under.
	store        *blockstore.Store
	coordsDigest string

	// Tracing (WithTrace): each tile body records a leaflet.tile span
	// parented under traceParent.
	tracer      *obs.Tracer
	traceParent obs.SpanContext
}

func (o runOpts) cancelled() bool { return o.cancel != nil && o.cancel() }

func gatherOpts(opts []Option) runOpts {
	var o runOpts
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithCancel installs a cooperative cancellation flag for the runs that
// schedule their own work: Serial polls it every few thousand atoms and
// RunPilot's units skip their kernel once it reports true, so a run
// drains quickly instead of completing. (Run needs none: its executor
// stops handing out tasks.) The caller is responsible for discarding the
// partial result of a cancelled run.
func WithCancel(fn func() bool) Option { return func(o *runOpts) { o.cancel = fn } }

// WithTrace makes each tile body record a leaflet.tile span (with tile
// bounds and cache outcome) into t, parented under parent. A nil t
// disables tracing.
func WithTrace(t *obs.Tracer, parent obs.SpanContext) Option {
	return func(o *runOpts) {
		o.tracer = t
		o.traceParent = parent
	}
}
