package loadgen

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// PromMetrics is a parsed Prometheus text exposition: every sample
// keyed by its full series name (name plus label set, verbatim), with
// helpers that aggregate across label sets.
type PromMetrics map[string]float64

// ParseProm reads the text exposition format the obs registry (and
// every Prometheus endpoint) emits: `name{labels} value` samples, with
// `#` comment lines. Histogram series parse like any other sample
// (name_bucket/name_sum/name_count). A malformed line is an error — a
// name outside [a-zA-Z_:][a-zA-Z0-9_:]*, a label set that does not
// close, a value that is no float — since a gate scraping garbage must
// say so, not read zeros.
func ParseProm(r io.Reader) (PromMetrics, error) {
	out := make(PromMetrics)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is the last space-separated field; the series name
		// (which may itself contain spaces inside label values) is
		// everything before it.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 1 {
			return nil, fmt.Errorf("loadgen: malformed metric line %q", line)
		}
		series := strings.TrimSpace(line[:cut])
		if !seriesName.MatchString(series) {
			return nil, fmt.Errorf("loadgen: malformed series name %q", series)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("loadgen: metric %q: %w", series, err)
		}
		out[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// seriesName is what precedes a sample's value: a metric name,
// optionally followed by a label set in braces.
var seriesName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})?$`)

// Value returns the sum of every series of the named metric across
// label sets (for an unlabelled metric, just its value), and whether
// any series of that name exists.
func (m PromMetrics) Value(name string) (float64, bool) { return m.sum(name) }

// sum is Value over the series whose label set holds every one of the
// given `key="value"` pairs.
func (m PromMetrics) sum(name string, labels ...string) (float64, bool) {
	total, found := 0.0, false
	for series, v := range m {
		rest, ok := strings.CutPrefix(series, name)
		if !ok || rest != "" && rest[0] != '{' {
			continue
		}
		set := "," + strings.TrimSuffix(strings.TrimPrefix(rest, "{"), "}") + ","
		match := true
		for _, l := range labels {
			match = match && strings.Contains(set, ","+l+",")
		}
		if match {
			total += v
			found = true
		}
	}
	return total, found
}

// Delta returns after[name] - before[name] summed across label sets;
// a metric absent on both sides reports found=false.
func Delta(before, after PromMetrics, name string) (float64, bool) {
	b, okB := before.Value(name)
	a, okA := after.Value(name)
	return a - b, okA || okB
}
