package engine

import "mdtask/internal/obs"

// Env is what a task body gets from its run, whatever engine runs it:
// psa.Opts and stage.Env embed it and leaflet.Run takes it. Every field
// is optional; the zero Env is an uncancellable, unaccounted, untraced
// run.
type Env struct {
	// Cancel, when non-nil, is polled by kernels that can stop early.
	Cancel func() bool
	// Metrics receives the task bodies' kernel accounting.
	Metrics *Metrics
	// Tracer and TraceParent give each task body a span, a child of
	// TraceParent; a nil Tracer disables tracing.
	Tracer      *obs.Tracer
	TraceParent obs.SpanContext
	// KernelHist, when non-nil, observes each kernel's wall time in
	// seconds (KernelHistogram).
	KernelHist *obs.Histogram
}

// Cancelled reports whether a cooperative cancellation was requested.
func (e Env) Cancelled() bool { return e.Cancel != nil && e.Cancel() }

// KernelHistogram returns r's mdtask_block_kernel_seconds, the wall time
// of every PSA block and Leaflet tile kernel run in r's process.
func KernelHistogram(r *obs.Registry) *obs.Histogram {
	return r.Histogram("mdtask_block_kernel_seconds",
		"Wall time of block kernels (PSA blocks and Leaflet tiles) run in this process.")
}
