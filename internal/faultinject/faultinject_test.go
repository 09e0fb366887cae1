package faultinject

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestDisabledIsInert(t *testing.T) {
	Deactivate()
	if Enabled() {
		t.Fatal("Enabled() = true after Deactivate")
	}
	if err := Fire("wal.append"); err != nil {
		t.Fatalf("disarmed Fire returned %v", err)
	}
	if Hits("wal.append") != 0 {
		t.Fatal("disarmed Fire counted a hit")
	}
}

func TestErrorArm(t *testing.T) {
	t.Cleanup(Deactivate)
	if err := Activate("wal.append=error"); err != nil {
		t.Fatal(err)
	}
	if err := Fire("wal.append"); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed Fire = %v, want ErrInjected", err)
	}
	if err := Fire("wal.sync"); err != nil {
		t.Fatalf("unarmed sibling point fired: %v", err)
	}
	if got := Hits("wal.append"); got != 1 {
		t.Fatalf("Hits = %d, want 1", got)
	}
}

func TestNthHitArm(t *testing.T) {
	t.Cleanup(Deactivate)
	if err := Activate("p=error@3"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		err := Fire("p")
		if i == 3 && !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d: got %v, want ErrInjected", i, err)
		}
		if i != 3 && err != nil {
			t.Fatalf("hit %d: got %v, want nil", i, err)
		}
	}
}

func TestPartialAndSleepArms(t *testing.T) {
	t.Cleanup(Deactivate)
	if err := Activate("w=partial,s=sleep:10ms"); err != nil {
		t.Fatal(err)
	}
	if err := Fire("w"); !errors.Is(err, ErrPartial) {
		t.Fatalf("partial arm = %v, want ErrPartial", err)
	}
	start := time.Now()
	if err := Fire("s"); err != nil {
		t.Fatalf("sleep arm = %v, want nil", err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("sleep arm returned after %v, want >= 10ms", d)
	}
}

func TestMalformedSpecs(t *testing.T) {
	t.Cleanup(Deactivate)
	for _, spec := range []string{"noequals", "=error", "p=bogus", "p=sleep:xyz", "p=error@0", "p=error@x"} {
		if err := Activate(spec); err == nil {
			t.Errorf("Activate(%q) accepted a malformed spec", spec)
		}
	}
	// A failed Activate must not leave stale arms behind.
	if err := Activate(""); err != nil {
		t.Fatal(err)
	}
	if Enabled() {
		t.Fatal("empty spec left points armed")
	}
}

// Hits returns how many times the named point has fired its check
// since activation (armed or not for that particular hit).
func Hits(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if c, ok := hits[name]; ok {
		return atomic.LoadInt64(c)
	}
	return 0
}
