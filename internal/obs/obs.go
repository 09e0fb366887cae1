// Package obs is the stdlib-only observability layer of the
// repository: lightweight distributed tracing, fixed-bucket latency
// histograms, and a Prometheus text-format metrics registry, threaded
// through the jobs scheduler, every engine driver, the block store,
// and the fleet's coordinator/worker HTTP protocol.
//
// # Spans
//
// A Tracer creates nested spans forming the timeline of one job:
//
//	job → queue.wait → run → engine.<name> → psa.block → cache.do
//	                        ↘ fleet.job → fleet.lease → worker.kernel
//
// Span identity follows the W3C Trace Context model: a 16-byte trace
// id shared by every span of one job and an 8-byte span id per span.
// The fleet propagates identities across its HTTP hops in the
// standard `traceparent` header form, so a work unit executed by a
// separate mdworker process — or SIGKILL-requeued and retried by
// another — still lands in the submitting job's trace, visibly
// parented under its lease. Finished traces export as Chrome
// trace_event JSON (GET /v1/jobs/{id}/trace), loadable directly in
// chrome://tracing or Perfetto.
//
// All tracing types are nil-safe: a nil *Tracer hands out nil *Spans
// whose methods no-op, so disabling tracing removes every cost except
// a nil check on the hot path.
//
// # Metrics
//
// A Registry holds counters, gauges (value callbacks), and fixed
// exponential-bucket histograms with per-series labels, and writes
// the Prometheus text exposition format (GET /metrics). Histograms
// support lock-free concurrent Observe; quantiles are computed by the
// scraper from the exposed buckets.
//
// # Requests
//
// Middleware records each HTTP request once, in two places: the
// mdtask_http_requests_total and mdtask_http_request_duration_seconds
// series on /metrics, and an http.server span when the request
// continues a trace. It writes no log line, so a process's log holds
// only its lifecycle lines.
package obs

// Obs bundles the observability handles of one process: its tracer
// and its metrics registry. Components share one Obs so spans from
// every layer land in the same trace buffer and every metric series
// is served by the same /metrics endpoint.
type Obs struct {
	Tracer  *Tracer
	Metrics *Registry
}

// New returns an Obs with an enabled tracer (bounded buffers) and an
// empty registry. proc names the process in exported spans
// ("mdserver", "mdworker", ...).
func New(proc string) *Obs {
	return &Obs{Tracer: NewTracer(proc), Metrics: NewRegistry()}
}

// NoTrace returns an Obs whose tracer is disabled (nil): metrics
// still register and expose, spans cost a nil check and nothing else.
func NoTrace() *Obs {
	return &Obs{Tracer: nil, Metrics: NewRegistry()}
}
