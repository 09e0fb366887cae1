package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("mdtask_test_total", "A counter.", "engine", "fleet").Add(3)
	r.GaugeFunc("mdtask_test_gauge", "A gauge.", func() float64 { return 1.5 })
	h := r.Histogram("mdtask_test_seconds", "A histogram.")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(20)

	out := expose(t, r)
	for _, want := range []string{
		"# HELP mdtask_test_total A counter.",
		"# TYPE mdtask_test_total counter",
		`mdtask_test_total{engine="fleet"} 3`,
		"# TYPE mdtask_test_gauge gauge",
		"mdtask_test_gauge 1.5",
		"# TYPE mdtask_test_seconds histogram",
		`mdtask_test_seconds_bucket{le="0.0005"} 0`,
		`mdtask_test_seconds_bucket{le="0.05"} 1`,
		`mdtask_test_seconds_bucket{le="0.1"} 1`,
		`mdtask_test_seconds_bucket{le="0.5"} 2`,
		`mdtask_test_seconds_bucket{le="10"} 2`,
		`mdtask_test_seconds_bucket{le="30"} 3`,
		`mdtask_test_seconds_bucket{le="60"} 3`,
		`mdtask_test_seconds_bucket{le="+Inf"} 3`,
		"mdtask_test_seconds_sum 20.55",
		"mdtask_test_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Families are sorted by name.
	gi := strings.Index(out, "mdtask_test_gauge")
	hi := strings.Index(out, "mdtask_test_seconds")
	ci := strings.Index(out, "mdtask_test_total")
	if !(gi < hi && hi < ci) {
		t.Error("families are not sorted by name")
	}
}

func TestHistogramBucketsAreCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "")
	for _, v := range []float64{0.5, 1.5, 1.6, 2.5, 90} {
		h.Observe(v)
	}
	out := expose(t, r)
	for _, want := range []string{
		`h_seconds_bucket{le="0.25"} 0`,
		`h_seconds_bucket{le="0.5"} 1`,
		`h_seconds_bucket{le="1"} 1`,
		`h_seconds_bucket{le="2.5"} 4`,
		`h_seconds_bucket{le="5"} 4`,
		`h_seconds_bucket{le="60"} 4`,
		`h_seconds_bucket{le="+Inf"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", "path", "a\"b\\c\nd").Inc()
	out := expose(t, r)
	if !strings.Contains(out, `c_total{path="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", out)
	}
}

func TestGetOrCreateReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", "k", "v")
	b := r.Counter("x_total", "", "k", "v")
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	c := r.Counter("x_total", "", "k", "other")
	if a == c {
		t.Fatal("distinct labels share a counter")
	}
	if ha, hb := r.Histogram("h", ""), r.Histogram("h", ""); ha != hb {
		t.Fatal("same histogram name returned distinct instruments")
	}
}

func TestKindConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a histogram did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x_total", "")
	r.Histogram("x_total", "")
}

func TestNilCounterSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "help").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Fatalf("body missing sample:\n%s", rec.Body.String())
	}
}

func TestBuildInfoAndRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	RegisterBuildInfo(r, "testsvc")
	out := expose(t, r)
	for _, want := range []string{"go_goroutines", "mdtask_build_info", `service="testsvc"`} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	if Version() == "" {
		t.Error("Version() is empty")
	}
}
