package main

import (
	"encoding/json"
	"sort"
	"time"
)

// span is one timed call into a layer. Parent indexes the recorder's
// span list (-1: a root); spans of one replayed job share Job.
type span struct {
	Name       string
	Job        int
	Parent     int
	Start, End time.Duration // since the recorder's epoch
}

// recorder is the benchmark's own span store: the traced run measures
// internal/obs, so it must not record through it. Spans stay in memory
// and are written out once, at exit. A recorder is used from one
// goroutine (the replay calls layers sequentially).
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index, the handle for end and for
// parenting children.
func (r *recorder) begin(name string, job, parent int) int {
	r.spans = append(r.spans, span{Name: name, Job: job, Parent: parent, Start: time.Since(r.epoch)})
	return len(r.spans) - 1
}

// end closes a span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id]
	s.End = time.Since(r.epoch)
	return s.End - s.Start
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children are
// counted once).
func (r *recorder) selfTimes() []time.Duration {
	children := make(map[int][]int)
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].Start < r.spans[kids[b]].Start })
		covered, reach := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := r.spans[k].Start, r.spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// chromeTrace renders the spans as Chrome trace_event JSON (complete
// "X" events, microsecond timestamps): one row (tid) per replayed job,
// nesting shown by containment, self time attached as an argument.
func (r *recorder) chromeTrace() ([]byte, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := r.selfTimes()
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Job + 1,
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{
				"span": i, "parent": s.Parent, "job": s.Job,
				"self_us": float64(self[i]) / float64(time.Microsecond),
			},
		}
	}
	return json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
