package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. A nil
// *Counter no-ops.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored — counters are monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// metric kinds.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one labeled instance of a metric family.
type series struct {
	labels  string // rendered `{k="v",...}` or ""
	counter *Counter
	valueFn func() float64
	hist    *Histogram
}

// family is one named metric with its labeled series.
type family struct {
	name, help, kind string
	series           map[string]*series
	order            []string
}

// Registry holds named metric families and renders them in the
// Prometheus text exposition format. All methods are safe for
// concurrent use; registering an existing name+labels pair returns
// the existing instrument (get-or-create), registering a name under a
// conflicting kind panics.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// familyOf returns (creating if needed) the family for name, checking
// kind consistency. Callers hold r.mu.
func (r *Registry) familyOf(name, help, kind string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

// seriesOf returns (creating if needed) the labeled series. Callers
// hold r.mu.
func (f *family) seriesOf(labels []string) (*series, bool) {
	key := renderLabels(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s, !ok
}

// Counter registers (or returns) a counter. labels are alternating
// name/value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, fresh := r.familyOf(name, help, kindCounter).seriesOf(labels)
	if fresh {
		s.counter = &Counter{}
	}
	return s.counter
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time (for counters another component already maintains).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, _ := r.familyOf(name, help, kindCounter).seriesOf(labels)
	s.valueFn = fn
}

// GaugeFunc registers a gauge whose value is read from fn at
// exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, _ := r.familyOf(name, help, kindGauge).seriesOf(labels)
	s.valueFn = fn
}

// Histogram registers (or returns) a histogram over DefBuckets.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, fresh := r.familyOf(name, help, kindHistogram).seriesOf(labels)
	if fresh {
		s.hist = NewHistogram()
	}
	return s.hist
}

// renderLabels turns alternating name/value pairs into the exposition
// label block, escaping values per the text format.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be alternating name/value pairs")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes backslash, double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// withExtraLabel splices one more label pair into an already rendered
// label block (used for histogram `le`).
func withExtraLabel(rendered, name, value string) string {
	pair := name + `="` + escapeLabelValue(value) + `"`
	if rendered == "" {
		return "{" + pair + "}"
	}
	return rendered[:len(rendered)-1] + "," + pair + "}"
}

// formatFloat renders a sample value.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the text exposition format,
// families sorted by name, series in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	// Snapshot the family/series structure under the lock; instrument
	// reads below are already atomic.
	type row struct {
		fam    *family
		series []*series
	}
	rows := make([]row, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		sl := make([]*series, 0, len(f.order))
		for _, key := range f.order {
			sl = append(sl, f.series[key])
		}
		rows = append(rows, row{fam: f, series: sl})
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, rw := range rows {
		f := rw.fam
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range rw.series {
			switch {
			case f.kind == kindHistogram && s.hist != nil:
				snap := s.hist.Snapshot()
				var cum int64
				for i, bound := range snap.Bounds {
					cum += snap.Counts[i]
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
						withExtraLabel(s.labels, "le", formatFloat(bound)), cum)
				}
				cum += snap.Counts[len(snap.Bounds)]
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
					withExtraLabel(s.labels, "le", "+Inf"), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, s.labels, formatFloat(snap.Sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, s.labels, cum)
			case s.valueFn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.valueFn()))
			case s.counter != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.counter.Value())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves the registry at GET /metrics in the Prometheus text
// format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
