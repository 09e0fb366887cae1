package obs

import (
	"fmt"
	"math/rand"
	"runtime"
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

func TestTouchedTraceOutlivesUntouchedNewerTrace(t *testing.T) {
	tr := NewTracer("test")
	tr.maxTraces = 3
	roots := make([]SpanContext, 3)
	for i := range roots {
		s := tr.StartRoot("job")
		s.End()
		roots[i] = s.Context()
	}
	// A span into the oldest trace makes it the most recently touched,
	// so the next new trace evicts roots[1], the oldest untouched one.
	tr.StartChild(roots[0], "run").End()
	tr.StartRoot("job").End()
	if tr.TraceCount() != 3 {
		t.Fatalf("trace count %d, want 3", tr.TraceCount())
	}
	if spans, _ := tr.Spans(roots[0].Trace); len(spans) != 2 {
		t.Fatalf("touched trace holds %d spans, want 2", len(spans))
	}
	if spans, _ := tr.Spans(roots[1].Trace); spans != nil {
		t.Fatal("untouched newer trace survived eviction")
	}
	if spans, _ := tr.Spans(roots[2].Trace); len(spans) != 1 {
		t.Fatal("newest old trace was evicted")
	}
}

func TestFillAfterTakeEvictsOldestRemaining(t *testing.T) {
	tr := NewTracer("test")
	tr.maxTraces = 3
	var ids []TraceID
	newTrace := func() {
		s := tr.StartRoot("job")
		s.End()
		ids = append(ids, s.Context().Trace)
	}
	alive := func(want ...int) {
		t.Helper()
		if tr.TraceCount() != len(want) {
			t.Fatalf("trace count %d, want %d", tr.TraceCount(), len(want))
		}
		for _, i := range want {
			if spans, _ := tr.Spans(ids[i]); len(spans) != 1 {
				t.Fatalf("trace %d was evicted", i)
			}
		}
	}
	newTrace()
	newTrace()
	newTrace()
	if len(tr.Take(ids[1])) != 1 {
		t.Fatal("Take of the middle trace returned no span")
	}
	alive(0, 2)
	newTrace() // fills the slot Take freed: nothing is evicted
	alive(0, 2, 3)
	newTrace() // evicts ids[0], the oldest remaining
	alive(2, 3, 4)
	if len(tr.Take(ids[4])) != 1 {
		t.Fatal("Take of the newest trace returned no span")
	}
	alive(2, 3)
	newTrace()
	newTrace() // evicts ids[2]
	alive(3, 5, 6)
}

// recordBytes returns the heap bytes allocated per span recorded into
// an existing trace while the tracer retains the given number of
// traces: 1000 spans round-robin into the 3 newest traces.
func recordBytes(retained int) float64 {
	tr := NewTracer("test")
	roots := make([]SpanContext, retained)
	for i := range roots {
		s := tr.StartRoot("job")
		s.End()
		roots[i] = s.Context()
	}
	hot := roots[retained-3:]
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		tr.StartChild(hot[i%len(hot)], "run").End()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / n
}

func TestRecordCostIndependentOfRetainedTraces(t *testing.T) {
	few, full := recordBytes(3), recordBytes(defaultMaxTraces)
	if full-few > 64 {
		t.Fatalf("recording a span allocates %.0f B with %d traces retained, %.0f B with 3", full, defaultMaxTraces, few)
	}
}

func TestSetAttrAfterEndIsIgnored(t *testing.T) {
	tr := NewTracer("test")
	s := tr.StartRoot("fleet.lease")
	s.SetAttr("outcome", "done")
	s.End()
	s.SetAttr("outcome", "revoked")
	s.SetAttrInt("late", 1)
	spans, _ := tr.Spans(s.Context().Trace)
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	if got := spans[0].Attrs; len(got) != 1 || got["outcome"] != "done" {
		t.Fatalf("recorded attrs = %v, want only outcome=done", got)
	}
}

func TestLateSetAttrDoesNotRaceReaders(t *testing.T) {
	tr := NewTracer("test")
	s := tr.StartRoot("job")
	s.SetAttr("k", "v")
	s.End()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			s.SetAttrInt("k", int64(i))
		}
	}()
	for i := 0; i < 1000; i++ {
		spans, _ := tr.Spans(s.Context().Trace)
		if got := spans[0].Attrs["k"]; got != "v" {
			t.Errorf("recorded attr k = %q after End, want v", got)
			break
		}
		ChromeTrace(spans)
	}
	<-done
}

// BenchmarkSpanRecord times one child span (start, one attribute, end)
// recorded into an existing trace, with 3 and with 256 traces retained.
func BenchmarkSpanRecord(b *testing.B) {
	for _, retained := range []int{3, defaultMaxTraces} {
		b.Run(fmt.Sprintf("traces=%d", retained), func(b *testing.B) {
			tr := NewTracer("bench")
			var hot SpanContext
			for i := 0; i < retained; i++ {
				s := tr.StartRoot("job")
				s.End()
				if i == 0 {
					hot = s.Context()
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := tr.StartChild(hot, "run")
				s.SetAttr("engine", "dask")
				s.End()
			}
		})
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
