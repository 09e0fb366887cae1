package obs

import (
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func TestNormalizePath(t *testing.T) {
	cases := map[string]string{
		"/v1/jobs":                  "/v1/jobs",
		"/v1/jobs/job-000042":       "/v1/jobs/{id}",
		"/v1/jobs/job-000042/trace": "/v1/jobs/{id}/trace",
		"/v1/workers/w-7/lease":     "/v1/workers/{id}/lease",
		"/v1/fleet/jobs/fj-3/input": "/v1/fleet/jobs/{id}/input",
		"/v1/things/123":            "/v1/things/{id}",
		"/metrics":                  "/metrics",
		"/healthz":                  "/healthz",
	}
	for in, want := range cases {
		if got := NormalizePath(in); got != want {
			t.Errorf("NormalizePath(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMiddlewareMetricsAndSpans(t *testing.T) {
	o := New("testsvc")
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
	})
	h := Middleware(mux, o, "testsvc")

	// Plain request: metrics, no span (no inbound traceparent).
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", nil))
	if o.Tracer.TraceCount() != 0 {
		t.Fatal("request without traceparent minted a trace")
	}

	// Request continuing a trace: span lands in that trace.
	parentSpan := o.Tracer.StartRoot("client")
	req := httptest.NewRequest("POST", "/v1/workers/w-1/results", nil)
	req.Header.Set("traceparent", parentSpan.Context().TraceParent())
	h.ServeHTTP(httptest.NewRecorder(), req)
	spans, _ := o.Tracer.Spans(parentSpan.Context().Trace)
	if len(spans) != 1 {
		t.Fatalf("inbound traceparent produced %d spans, want 1", len(spans))
	}
	ws := spans[0]
	if ws.Name != "http.server POST /v1/workers/{id}/results" {
		t.Errorf("span name %q", ws.Name)
	}
	if ws.Parent != parentSpan.Context().Span.String() {
		t.Error("server span not parented under the inbound context")
	}
	if ws.Attrs["http.status"] != "202" {
		t.Errorf("status attr %q, want 202", ws.Attrs["http.status"])
	}

	// A traced request the mux cannot route: its span carries the
	// trace id and the 404, and the counter counts it under code="404".
	root := o.Tracer.StartRoot("client")
	req = httptest.NewRequest("GET", "/v2/job-7", nil)
	req.Header.Set("traceparent", root.Context().TraceParent())
	h.ServeHTTP(httptest.NewRecorder(), req)
	spans, _ = o.Tracer.Spans(root.Context().Trace)
	if len(spans) != 1 || spans[0].Trace != root.Context().Trace.String() || spans[0].Attrs["http.status"] != "404" {
		t.Fatalf("404 request spans = %+v, want one span in trace %s with http.status 404", spans, root.Context().Trace)
	}

	var b strings.Builder
	if err := o.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`mdtask_http_requests_total{service="testsvc",method="POST",path="/v1/jobs",code="202"} 1`,
		`mdtask_http_request_duration_seconds_count{service="testsvc",method="POST",path="/v1/jobs"} 1`,
		`mdtask_http_requests_total{service="testsvc",method="GET",path="/v2/{id}",code="404"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q\n%s", want, out)
		}
	}
}

func TestMiddlewareNilObs(t *testing.T) {
	h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}), nil, "svc")
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil)) // must not panic
}

// TestNewHTTPServerTimesOutHeaders pins the header timeout of the one
// server constructor every listener uses: a connection that never sends
// its request line is closed, not held forever, and the handler is
// served as given.
func TestNewHTTPServerTimesOutHeaders(t *testing.T) {
	srv := NewHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	if srv.ReadHeaderTimeout != 10*time.Second {
		t.Fatalf("ReadHeaderTimeout = %v, want 10s", srv.ReadHeaderTimeout)
	}
	srv.ReadHeaderTimeout = 50 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("status %d, want the wrapped handler's 204", resp.StatusCode)
	}

	idle, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	_ = idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := idle.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("idle connection read = %v, want the server to close it", err)
	}
}
