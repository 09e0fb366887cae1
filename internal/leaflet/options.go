package leaflet

import "mdtask/internal/obs"

// Option configures a run; the zero set of options is a plain untraced,
// uncancellable run.
type Option func(*runOpts)

type runOpts struct {
	cancel func() bool

	// Instrumentation (WithTrace): each tile body records a
	// leaflet.tile span parented under traceParent and observes its
	// kernel's wall time into kernelHist.
	tracer      *obs.Tracer
	traceParent obs.SpanContext
	kernelHist  *obs.Histogram
}

func (o runOpts) cancelled() bool { return o.cancel != nil && o.cancel() }

func gatherOpts(opts []Option) runOpts {
	var o runOpts
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithCancel installs a cooperative cancellation flag for Serial, which
// schedules its own work: it polls the flag every few thousand atoms,
// so a run drains quickly instead of completing. (Run needs none: its
// executor stops handing out tasks.) The caller is responsible for
// discarding the partial result of a cancelled run.
func WithCancel(fn func() bool) Option { return func(o *runOpts) { o.cancel = fn } }

// WithTrace instruments the tile bodies of the Parallel-CC and
// Tree-Search approaches: each records a leaflet.tile span (with its
// tile bounds) into t, parented under parent, and observes its kernel's
// wall time into kernel. A nil t disables tracing, a nil kernel the
// observation.
func WithTrace(t *obs.Tracer, parent obs.SpanContext, kernel *obs.Histogram) Option {
	return func(o *runOpts) {
		o.tracer = t
		o.traceParent = parent
		o.kernelHist = kernel
	}
}
