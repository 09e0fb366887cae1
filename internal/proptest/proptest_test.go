package proptest

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// recorder is a testing.TB that keeps what Check reports.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}
func (r *recorder) Fatalf(format string, args ...any) { r.Errorf(format, args...) }

// draws runs a property that records the first ints it is given.
func draws(t testing.TB, cfg *quick.Config) []int {
	var got []int
	Check(t, func(x int) bool { got = append(got, x); return true }, cfg)
	return got
}

func TestCheckIsReplayable(t *testing.T) {
	t.Setenv("MDTASK_QUICK_SOAK", "")
	t.Setenv("MDTASK_QUICK_SEED", "")
	a, b := draws(t, &quick.Config{MaxCount: 5}), draws(t, &quick.Config{MaxCount: 5})
	if fmt.Sprint(a) != fmt.Sprint(b) || len(a) != 5 {
		t.Fatalf("default seed drew %v, then %v", a, b)
	}
	t.Setenv("MDTASK_QUICK_SEED", "42")
	c := draws(t, &quick.Config{MaxCount: 5})
	if fmt.Sprint(c) == fmt.Sprint(a) || fmt.Sprint(c) != fmt.Sprint(draws(t, &quick.Config{MaxCount: 5})) {
		t.Fatalf("MDTASK_QUICK_SEED=42 drew %v (default seed: %v)", c, a)
	}
	t.Setenv("MDTASK_QUICK_SOAK", "1")
	if n := len(draws(t, &quick.Config{MaxCount: 5})); n != 50 {
		t.Fatalf("soak ran %d inputs, want 10 × 5", n)
	}
	if n := len(draws(t, nil)); n != 1000 {
		t.Fatalf("soak ran %d inputs of a default config, want 10 × 100", n)
	}
}

func TestCheckReportsSeed(t *testing.T) {
	t.Setenv("MDTASK_QUICK_SOAK", "")
	t.Setenv("MDTASK_QUICK_SEED", "7")
	r := &recorder{TB: t}
	Check(r, func(x int) bool { return false }, nil)
	if len(r.errs) != 1 || !strings.Contains(r.errs[0], "seed 7") || !strings.Contains(r.errs[0], "MDTASK_QUICK_SEED=7 go test") {
		t.Fatalf("failure reported as %q", r.errs)
	}
	t.Setenv("MDTASK_QUICK_SEED", "x")
	r = &recorder{TB: t}
	Check(r, func(int) bool { return true }, nil)
	if len(r.errs) != 1 || !strings.Contains(r.errs[0], "MDTASK_QUICK_SEED") {
		t.Fatalf("bad seed reported as %q", r.errs)
	}
}
