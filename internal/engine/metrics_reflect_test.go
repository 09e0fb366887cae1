package engine

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// Snapshot is the one record of engine accounting and Add its one merge
// rule; the service-wide aggregate, the pilot's metrics files and the
// fleet's unit results all fold through it. These reflection tests fail
// the moment someone adds a Snapshot field without extending Add or
// Valid, instead of silently dropping the new counter from /v1/metrics
// or letting a negative one in from a unit payload.

// distinct returns a Snapshot whose every field holds a distinct
// nonzero value (field index + 1).
func distinct(t *testing.T) Snapshot {
	t.Helper()
	var s Snapshot
	rv := reflect.ValueOf(&s).Elem()
	for i := range rv.NumField() {
		if k := rv.Field(i).Kind(); k != reflect.Int64 {
			t.Fatalf("Snapshot.%s has kind %s; extend this test for non-int64 fields", rv.Type().Field(i).Name, k)
		}
		rv.Field(i).SetInt(int64(i + 1))
	}
	return s
}

// extrema are the fields Add widens or narrows instead of summing.
var extrema = map[string]bool{"MaxTask": true, "MinTask": true, "PeakResidentFrames": true}

func TestMetricsAddCoversEveryField(t *testing.T) {
	want := distinct(t)
	var m Metrics
	m.Add(want)
	if got := m.Snapshot(); got != want {
		t.Fatalf("Add into a zero sink drops or mangles a field:\n got %+v\nwant %+v", got, want)
	}
	m.Add(want)
	got, w := reflect.ValueOf(m.Snapshot()), reflect.ValueOf(want)
	for i := range w.NumField() {
		name, x := w.Type().Field(i).Name, w.Field(i).Int()
		if !extrema[name] {
			x *= 2
		}
		if got.Field(i).Int() != x {
			t.Errorf("adding a snapshot twice: %s = %d, want %d", name, got.Field(i).Int(), x)
		}
	}
	m.Add(Snapshot{Tasks: 1, MaxTask: 1, MinTask: 1})
	m.Add(Snapshot{Tasks: 1}) // no task duration observed: MinTask keeps its value
	if s := m.Snapshot(); s.MinTask != 1 || s.MaxTask != want.MaxTask {
		t.Errorf("extrema after a shorter task: min %v max %v, want 1ns and %v", s.MinTask, s.MaxTask, want.MaxTask)
	}
}

func TestSnapshotValidRejectsNegativeFields(t *testing.T) {
	if err := (Snapshot{}).Valid(); err != nil {
		t.Fatalf("zero snapshot: %v", err)
	}
	if err := distinct(t).Valid(); err != nil {
		t.Fatalf("positive snapshot: %v", err)
	}
	rt := reflect.TypeOf(Snapshot{})
	for i := range rt.NumField() {
		s := distinct(t)
		reflect.ValueOf(&s).Elem().Field(i).SetInt(-1)
		err := s.Valid()
		if err == nil || !strings.Contains(err.Error(), rt.Field(i).Name) {
			t.Errorf("negative %s: Valid() = %v", rt.Field(i).Name, err)
		}
	}
}

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics // every recorder is a no-op on a nil sink
	m.Add(Snapshot{Tasks: 1})
	m.RecordTask(time.Second)
	m.RecordStage()
	m.RecordFailure()
	m.AddShuffle(1)
	m.AddBroadcast(1)
	m.AddStaged(1)
	m.AddBlockCache(1, 1, 1)
	if got := m.Snapshot(); got != (Snapshot{}) {
		t.Fatalf("nil sink snapshot = %+v", got)
	}
}
