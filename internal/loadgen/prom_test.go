package loadgen

import (
	"strings"
	"testing"
)

func TestParseProm(t *testing.T) {
	in := `
# HELP mdtask_jobs_submitted_total jobs accepted
# TYPE mdtask_jobs_submitted_total counter
mdtask_jobs_submitted_total 12
mdtask_http_requests_total{code="200",route="/v1/jobs"} 7
mdtask_http_requests_total{code="429",route="/v1/jobs"} 3
go_goroutines 41
mdtask_latency_seconds_bucket{le="0.1"} 5
`
	pm, err := ParseProm(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseProm: %v", err)
	}
	if v, ok := pm.Value("mdtask_jobs_submitted_total"); !ok || v != 12 {
		t.Fatalf("submitted = %v,%v, want 12,true", v, ok)
	}
	// Labelled series sum across label sets.
	if v, ok := pm.Value("mdtask_http_requests_total"); !ok || v != 10 {
		t.Fatalf("requests = %v,%v, want 10,true", v, ok)
	}
	// Prefix matching must not leak into longer names: the bucket series
	// belongs to mdtask_latency_seconds_bucket, not mdtask_latency_seconds.
	if _, ok := pm.Value("mdtask_latency_seconds"); ok {
		t.Fatal("mdtask_latency_seconds should not match the _bucket series")
	}
	if _, ok := pm.Value("absent_metric"); ok {
		t.Fatal("absent metric reported found")
	}
}

func TestParsePromMalformed(t *testing.T) {
	if _, err := ParseProm(strings.NewReader("mdtask_x notanumber\n")); err == nil {
		t.Fatal("malformed value parsed without error")
	}
	if _, err := ParseProm(strings.NewReader("loneword\n")); err == nil {
		t.Fatal("valueless line parsed without error")
	}
}

func TestDelta(t *testing.T) {
	before := PromMetrics{"c": 5, `l{a="x"}`: 2}
	after := PromMetrics{"c": 9, `l{a="x"}`: 2, `l{a="y"}`: 4}
	if d, ok := Delta(before, after, "c"); !ok || d != 4 {
		t.Fatalf("delta c = %v,%v, want 4,true", d, ok)
	}
	// A label set appearing only after still counts toward the delta.
	if d, ok := Delta(before, after, "l"); !ok || d != 4 {
		t.Fatalf("delta l = %v,%v, want 4,true", d, ok)
	}
	if _, ok := Delta(before, after, "nope"); ok {
		t.Fatal("absent metric reported found")
	}
}

// TestParsePromRejectsBadSeries pins the exposition grammar the
// observability gate checks: a series name is [a-zA-Z_:][a-zA-Z0-9_:]*,
// optionally followed by a label set that closes.
func TestParsePromRejectsBadSeries(t *testing.T) {
	for _, line := range []string{"9bad 1", "name{unterminated 1", "bad-name 1", "{a=\"b\"} 1", "name{a=\"b\"}x 1"} {
		if _, err := ParseProm(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%q parsed without error", line)
		}
	}
	for _, line := range []string{"a_b:c 1", "_x{a=\"b c\"} +Inf", "X9 NaN", "h_bucket{le=\"0.1\"} 2e-3"} {
		if _, err := ParseProm(strings.NewReader(line + "\n")); err != nil {
			t.Errorf("%q: %v", line, err)
		}
	}
}
