package engine

import (
	"reflect"
	"testing"
)

// The scheduler's service-wide aggregate and the fleet's cross-process
// result fold both rely on Snapshot and MergeFrom seeing every field.
// These reflection tests fail the moment someone adds a Metrics field
// without extending them, instead of silently dropping the new counter
// from /v1/metrics.

// setDistinct fills every exported field of m with a distinct nonzero
// value (field index + 1) and returns the expected values by name.
func setDistinct(t *testing.T, m *Metrics) map[string]int64 {
	t.Helper()
	want := make(map[string]int64)
	rv := reflect.ValueOf(m).Elem()
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if !f.IsExported() {
			continue // the mutex
		}
		if f.Type.Kind() != reflect.Int64 {
			t.Fatalf("Metrics.%s has kind %s; extend this test for non-int64 fields", f.Name, f.Type.Kind())
		}
		v := int64(i + 1)
		rv.Field(i).SetInt(v)
		want[f.Name] = v
	}
	return want
}

// exportedValues reads every exported field of a Snapshot by name.
func exportedValues(snap Snapshot) map[string]int64 {
	got := make(map[string]int64)
	rv := reflect.ValueOf(snap)
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		if !rt.Field(i).IsExported() {
			continue
		}
		got[rt.Field(i).Name] = rv.Field(i).Int()
	}
	return got
}

func TestMetricsSnapshotCoversEveryField(t *testing.T) {
	var m Metrics
	want := setDistinct(t, &m)
	snap := m.Snapshot()
	got := exportedValues(snap)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("Snapshot drops or mangles Metrics.%s: got %d, want %d", name, got[name], w)
		}
	}
}

func TestMetricsMergeFromCoversEveryField(t *testing.T) {
	var src, dst Metrics
	want := setDistinct(t, &src)
	dst.MergeFrom(&src)
	snap := dst.Snapshot()
	got := exportedValues(snap)
	// Merging into a zero sink must carry every field over: counters and
	// durations add from zero, extrema (MaxTask, MinTask,
	// PeakResidentFrames) widen from zero.
	for name, w := range want {
		if got[name] != w {
			t.Errorf("MergeFrom drops or mangles Metrics.%s: got %d, want %d", name, got[name], w)
		}
	}
}

func TestMetricsMergeFromNil(t *testing.T) {
	var dst Metrics
	dst.MergeFrom(nil) // must not panic
	if got := dst.Snapshot().Tasks; got != 0 {
		t.Fatalf("MergeFrom(nil) mutated the sink: Tasks = %d", got)
	}
}
