package obs

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestTraceParentRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		var c SpanContext
		rng.Read(c.Trace[:])
		rng.Read(c.Span[:])
		if !c.Valid() {
			continue // all-zero draw, vanishingly unlikely
		}
		parsed, ok := ParseTraceParent(c.TraceParent())
		if !ok {
			t.Fatalf("round trip rejected %q", c.TraceParent())
		}
		if parsed != c {
			t.Fatalf("round trip mangled %v into %v", c, parsed)
		}
	}
}

func TestParseTraceParentRejects(t *testing.T) {
	bad := []string{
		"",
		"00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7", // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span
		"00-zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz-00f067aa0ba902b7-01", // non-hex
	}
	for _, s := range bad {
		if _, ok := ParseTraceParent(s); ok {
			t.Errorf("ParseTraceParent(%q) accepted invalid input", s)
		}
	}
}

func TestNilTracerIsFullyInert(t *testing.T) {
	var tr *Tracer
	span := tr.StartRoot("x")
	span.SetAttr("k", "v")
	span.SetAttrInt("n", 1)
	span.End()
	child := tr.StartChild(span.Context(), "y")
	child.End()
	tr.Import([]WireSpan{{Trace: "00000000000000000000000000000001"}})
	if s, d := tr.Spans(TraceID{1}); s != nil || d != 0 {
		t.Fatal("nil tracer returned spans")
	}
	if tr.Take(TraceID{1}) != nil || tr.TraceCount() != 0 || tr.Enabled() {
		t.Fatal("nil tracer is not inert")
	}
}

func TestSpanRecordingAndNesting(t *testing.T) {
	tr := NewTracer("test")
	root := tr.StartRoot("job")
	child := tr.StartChild(root.Context(), "run")
	if child.Context().Trace != root.Context().Trace {
		t.Fatal("child left the parent's trace")
	}
	child.SetAttr("k", "v")
	child.End()
	child.End() // idempotent
	root.End()
	spans, dropped := tr.Spans(root.Context().Trace)
	if dropped != 0 || len(spans) != 2 {
		t.Fatalf("got %d spans (%d dropped), want 2 (0)", len(spans), dropped)
	}
	// Sorted by start: root began first.
	if spans[0].Name != "job" || spans[1].Name != "run" {
		t.Fatalf("unexpected order: %s, %s", spans[0].Name, spans[1].Name)
	}
	if spans[1].Parent != root.Context().Span.String() {
		t.Fatalf("child parent = %q, want %q", spans[1].Parent, root.Context().Span.String())
	}
	if spans[1].Attrs["k"] != "v" {
		t.Fatal("attribute lost")
	}
}

func TestStartChildWithInvalidParentStartsFreshTrace(t *testing.T) {
	tr := NewTracer("test")
	s := tr.StartChild(SpanContext{}, "orphan")
	if !s.Context().Valid() {
		t.Fatal("orphan span has no identity")
	}
	s.End()
	if spans, _ := tr.Spans(s.Context().Trace); len(spans) != 1 || spans[0].Parent != "" {
		t.Fatal("orphan did not become a root span")
	}
}

func TestPerTraceSpanCapCountsDropped(t *testing.T) {
	tr := NewTracer("test")
	tr.maxSpans = 4
	root := tr.StartRoot("r")
	for i := 0; i < 10; i++ {
		tr.StartChild(root.Context(), fmt.Sprintf("c%d", i)).End()
	}
	spans, dropped := tr.Spans(root.Context().Trace)
	if len(spans) != 4 || dropped != 6 {
		t.Fatalf("got %d spans, %d dropped; want 4 and 6", len(spans), dropped)
	}
}

func TestTraceLRUEviction(t *testing.T) {
	tr := NewTracer("test")
	tr.maxTraces = 3
	var first TraceID
	for i := 0; i < 5; i++ {
		s := tr.StartRoot("r")
		if i == 0 {
			first = s.Context().Trace
		}
		s.End()
	}
	if tr.TraceCount() != 3 {
		t.Fatalf("trace count %d, want 3", tr.TraceCount())
	}
	if spans, _ := tr.Spans(first); spans != nil {
		t.Fatal("oldest trace survived eviction")
	}
}

func TestTakeRemovesTrace(t *testing.T) {
	tr := NewTracer("worker")
	s := tr.StartRoot("kernel")
	s.End()
	trace := s.Context().Trace
	taken := tr.Take(trace)
	if len(taken) != 1 {
		t.Fatalf("Take returned %d spans, want 1", len(taken))
	}
	if got, _ := tr.Spans(trace); got != nil {
		t.Fatal("trace still present after Take")
	}
	if tr.Take(trace) != nil {
		t.Fatal("second Take returned spans")
	}
}

func TestImportCrossProcessSpans(t *testing.T) {
	worker := NewTracer("mdworker")
	coord := NewTracer("mdserver")

	// Coordinator-side lease span, propagated as traceparent.
	lease := coord.StartRoot("fleet.lease")
	parent, ok := ParseTraceParent(lease.Context().TraceParent())
	if !ok {
		t.Fatal("lease context did not serialize")
	}
	// Worker-side kernel span under it, shipped back and imported.
	kernel := worker.StartChild(parent, "worker.kernel")
	kernel.End()
	coord.Import(worker.Take(kernel.Context().Trace))
	lease.End()

	spans, _ := coord.Spans(lease.Context().Trace)
	if len(spans) != 2 {
		t.Fatalf("imported trace has %d spans, want 2", len(spans))
	}
	procs := map[string]bool{}
	for _, ws := range spans {
		procs[ws.Proc] = true
		if ws.Trace != lease.Context().Trace.String() {
			t.Fatalf("span %q escaped the trace", ws.Name)
		}
	}
	if !procs["mdserver"] || !procs["mdworker"] {
		t.Fatalf("trace does not span both processes: %v", procs)
	}
}

func TestImportSkipsInvalidTraceIDs(t *testing.T) {
	tr := NewTracer("test")
	tr.Import([]WireSpan{{Trace: "not-hex", Name: "x"}, {Trace: "", Name: "y"}})
	if tr.TraceCount() != 0 {
		t.Fatal("invalid trace ids were imported")
	}
}

// TraceCount returns the number of traces currently buffered.
func (t *Tracer) TraceCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.traces)
}
