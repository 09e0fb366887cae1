package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"strconv"
	"sync"
	"time"
)

// TraceID identifies one trace (one job's timeline) — 16 bytes, shared
// by every span of the trace, on every process that touched it.
type TraceID [16]byte

// SpanID identifies one span within a trace — 8 bytes.
type SpanID [8]byte

// String returns the id as lowercase hex (the W3C wire form).
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String returns the id as lowercase hex (the W3C wire form).
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the id is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// ParseTraceID decodes a 32-hex-digit trace id.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 32 {
		return t, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil || t.IsZero() {
		return TraceID{}, false
	}
	return t, true
}

// SpanContext is the propagated identity of a span: enough to parent
// remote children under it and land them in the same trace.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context carries a usable identity.
func (c SpanContext) Valid() bool { return !c.Trace.IsZero() && !c.Span.IsZero() }

// TraceParent renders the context as a W3C traceparent header value:
// version 00, sampled flag set.
func (c SpanContext) TraceParent() string {
	return "00-" + c.Trace.String() + "-" + c.Span.String() + "-01"
}

// ParseTraceParent decodes a W3C traceparent header value, accepting
// any version and flags but requiring non-zero trace and span ids.
func ParseTraceParent(s string) (SpanContext, bool) {
	// version(2)-traceid(32)-spanid(16)-flags(2)
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	var c SpanContext
	if _, err := hex.Decode(c.Trace[:], []byte(s[3:35])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(c.Span[:], []byte(s[36:52])); err != nil {
		return SpanContext{}, false
	}
	if !c.Valid() {
		return SpanContext{}, false
	}
	return c, true
}

// WireSpan is a finished span in its exported (JSON-friendly) form —
// the unit of cross-process span transport: fleet workers ship their
// kernel spans back to the coordinator as WireSpans inside the unit
// result, and the Chrome trace exporter consumes them.
type WireSpan struct {
	Trace  string            `json:"trace"`
	Span   string            `json:"span"`
	Parent string            `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Proc   string            `json:"proc"`
	Start  int64             `json:"start_unix_ns"`
	Dur    int64             `json:"dur_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Tracer creates spans and buffers the finished ones per trace, with
// both the trace count and the spans retained per trace bounded (the
// oldest-touched trace and the latest spans beyond the cap are
// dropped), so tracing on a long-running server holds steady memory.
// The traces form an intrusive doubly linked LRU list, so recording a
// span costs the same however many traces the buffer holds: a map
// lookup, an unlink and a relink, and the span's own slot.
//
// A nil *Tracer is the disabled tracer: every method no-ops and every
// started span is nil (whose methods also no-op).
type Tracer struct {
	proc string

	mu        sync.Mutex
	idState   [2]uint64 // xorshift128+ state for span/trace ids
	traces    map[TraceID]*traceBuf
	lru       traceBuf // sentinel: lru.next is the least recently touched trace, lru.prev the most
	maxTraces int
	maxSpans  int
}

type traceBuf struct {
	id         TraceID
	prev, next *traceBuf // LRU links
	spans      []WireSpan
	dropped    int
}

// Bounds of the default tracer: traces retained and spans per trace.
const (
	defaultMaxTraces        = 256
	defaultMaxSpansPerTrace = 8192
)

// NewTracer returns an enabled tracer stamping spans with the given
// process name.
func NewTracer(proc string) *Tracer {
	t := &Tracer{
		proc:      proc,
		traces:    make(map[TraceID]*traceBuf),
		maxTraces: defaultMaxTraces,
		maxSpans:  defaultMaxSpansPerTrace,
	}
	t.lru.prev, t.lru.next = &t.lru, &t.lru
	var seed [16]byte
	if _, err := rand.Read(seed[:]); err == nil {
		t.idState[0] = binary.LittleEndian.Uint64(seed[0:])
		t.idState[1] = binary.LittleEndian.Uint64(seed[8:])
	}
	if t.idState[0] == 0 && t.idState[1] == 0 {
		t.idState[0] = uint64(time.Now().UnixNano()) | 1
		t.idState[1] = 0x9e3779b97f4a7c15
	}
	return t
}

// Enabled reports whether the tracer records spans.
func (t *Tracer) Enabled() bool { return t != nil }

// nextID draws the next pseudo-random non-zero 64-bit id. Callers
// hold t.mu.
func (t *Tracer) nextIDLocked() uint64 {
	for {
		// xorshift128+ — fast, and seeded from crypto/rand so two
		// processes never collide in practice.
		x, y := t.idState[0], t.idState[1]
		x ^= x << 23
		x ^= x >> 17
		x ^= y ^ (y >> 26)
		t.idState[0], t.idState[1] = y, x
		if v := x + y; v != 0 {
			return v
		}
	}
}

func (t *Tracer) newSpanID() SpanID {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s SpanID
	binary.BigEndian.PutUint64(s[:], t.nextIDLocked())
	return s
}

func (t *Tracer) newTraceID() TraceID {
	t.mu.Lock()
	defer t.mu.Unlock()
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], t.nextIDLocked())
	binary.BigEndian.PutUint64(id[8:], t.nextIDLocked())
	return id
}

// Span is one in-progress operation. End records it into the tracer;
// a nil *Span (from a disabled tracer) no-ops everywhere.
type Span struct {
	t      *Tracer
	ctx    SpanContext
	parent SpanID
	name   string
	start  time.Time
	mu     sync.Mutex
	attrs  map[string]string
	ended  bool
}

// StartRoot begins a span in a fresh trace.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		t:     t,
		ctx:   SpanContext{Trace: t.newTraceID(), Span: t.newSpanID()},
		name:  name,
		start: time.Now(),
	}
}

// StartChild begins a span under parent. An invalid parent starts a
// fresh trace instead, so callers never need to special-case a
// missing inbound context.
func (t *Tracer) StartChild(parent SpanContext, name string) *Span {
	if t == nil {
		return nil
	}
	if !parent.Valid() {
		return t.StartRoot(name)
	}
	return &Span{
		t:      t,
		ctx:    SpanContext{Trace: parent.Trace, Span: t.newSpanID()},
		parent: parent.Span,
		name:   name,
		start:  time.Now(),
	}
}

// Context returns the span's propagable identity (zero for nil spans).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ctx
}

// SetAttr attaches a key/value attribute, visible in the exported
// trace's args. An ended span is already recorded, and its attributes
// are shared with readers of the buffer, so SetAttr after End is
// ignored.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
}

// SetAttrInt is SetAttr for integer values.
func (s *Span) SetAttrInt(key string, value int64) {
	s.SetAttr(key, strconv.FormatInt(value, 10))
}

// End finishes the span and records it into its tracer. Ending twice
// records once.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	ws := WireSpan{
		Trace: s.ctx.Trace.String(),
		Span:  s.ctx.Span.String(),
		Name:  s.name,
		Proc:  s.t.proc,
		Start: s.start.UnixNano(),
		Dur:   end.Sub(s.start).Nanoseconds(),
		Attrs: attrs,
	}
	if !s.parent.IsZero() {
		ws.Parent = s.parent.String()
	}
	s.t.record(s.ctx.Trace, ws)
}

// record appends one finished span to its trace buffer, enforcing the
// per-trace span cap and the trace-count LRU.
func (t *Tracer) record(trace TraceID, ws WireSpan) {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, ok := t.traces[trace]
	if ok {
		buf.unlink()
	} else {
		buf = &traceBuf{id: trace}
		t.traces[trace] = buf
	}
	t.pushMRULocked(buf)
	if len(t.traces) > t.maxTraces {
		evict := t.lru.next
		evict.unlink()
		delete(t.traces, evict.id)
	}
	if len(buf.spans) >= t.maxSpans {
		buf.dropped++
		return
	}
	buf.spans = append(buf.spans, ws)
}

// pushMRULocked links b at the most-recently-used end of the LRU list.
func (t *Tracer) pushMRULocked(b *traceBuf) {
	b.prev, b.next = t.lru.prev, &t.lru
	t.lru.prev.next = b
	t.lru.prev = b
}

// unlink removes b from the LRU list. Callers hold the tracer's mu.
func (b *traceBuf) unlink() {
	b.prev.next = b.next
	b.next.prev = b.prev
	b.prev, b.next = nil, nil
}

// Import records already-finished spans (e.g. shipped back from a
// fleet worker) into their traces.
func (t *Tracer) Import(spans []WireSpan) {
	if t == nil {
		return
	}
	for _, ws := range spans {
		trace, ok := ParseTraceID(ws.Trace)
		if !ok {
			continue
		}
		t.record(trace, ws)
	}
}

// Spans returns a copy of the finished spans of one trace, sorted by
// start time, plus how many were dropped by the per-trace cap.
func (t *Tracer) Spans(trace TraceID) (spans []WireSpan, dropped int) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, ok := t.traces[trace]
	if !ok {
		return nil, 0
	}
	out := make([]WireSpan, len(buf.spans))
	copy(out, buf.spans)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out, buf.dropped
}

// Take removes and returns the finished spans of one trace — the
// worker-side handoff: spans accumulated while executing a unit are
// taken and shipped with the result, leaving nothing behind.
func (t *Tracer) Take(trace TraceID) []WireSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, ok := t.traces[trace]
	if !ok {
		return nil
	}
	delete(t.traces, trace)
	buf.unlink()
	return buf.spans
}
