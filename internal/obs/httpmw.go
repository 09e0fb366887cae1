package obs

import (
	"net/http"
	"strconv"
	"strings"
	"time"
)

// statusRecorder captures the response status for the request counter
// and the server span.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// NormalizePath collapses identifier path segments to {id} so metric
// label cardinality stays bounded: segments that are job/fleet-job/
// worker/lease ids (job-, fj-, w-, l- prefixes) or purely numeric.
// CI runs Go 1.22, which predates http.Request.Pattern, hence the
// manual normalizer.
func NormalizePath(p string) string {
	segs := strings.Split(p, "/")
	changed := false
	for i, s := range segs {
		if isIDSegment(s) {
			segs[i] = "{id}"
			changed = true
		}
	}
	if !changed {
		return p
	}
	return strings.Join(segs, "/")
}

func isIDSegment(s string) bool {
	if s == "" {
		return false
	}
	for _, pfx := range [...]string{"job-", "fj-", "w-", "l-"} {
		if strings.HasPrefix(s, pfx) && len(s) > len(pfx) {
			return true
		}
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// Middleware wraps an HTTP handler with the standard server-side
// instrumentation: a per-endpoint latency histogram and request
// counter and, when the request carries a W3C traceparent header, an
// http.server span continuing the inbound trace. It writes no log
// line: every fact about a request is in those series or that span.
// Requests without a traceparent get metrics but no span: the job
// timeline's root spans are opened by the scheduler, and minting a
// fresh trace per unrelated request would churn the tracer's bounded
// trace buffer.
func Middleware(next http.Handler, o *Obs, service string) http.Handler {
	if o == nil {
		o = NoTrace()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		path := NormalizePath(r.URL.Path)

		var span *Span
		if parent, ok := ParseTraceParent(r.Header.Get("traceparent")); ok {
			span = o.Tracer.StartChild(parent, "http.server "+r.Method+" "+path)
			span.SetAttr("http.path", r.URL.Path)
		}

		next.ServeHTTP(rec, r)

		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		o.Metrics.Histogram("mdtask_http_request_duration_seconds",
			"HTTP server request latency by endpoint.",
			"service", service, "method", r.Method, "path", path,
		).Observe(time.Since(start).Seconds())
		o.Metrics.Counter("mdtask_http_requests_total",
			"HTTP server requests by endpoint and status code.",
			"service", service, "method", r.Method, "path", path,
			"code", strconv.Itoa(rec.status),
		).Inc()

		if span != nil {
			span.SetAttrInt("http.status", int64(rec.status))
			span.End()
		}
	})
}

// NewHTTPServer returns the http.Server every listener of mdserver,
// mdworker and fleet.Local serves through, the pprof and metrics side
// ports included. Its ReadHeaderTimeout closes the slowloris hole of a
// bare http.Serve, where a client that opens a connection and never
// sends a request line pins a goroutine for as long as it likes.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
}
