// Package proptest runs the module's testing/quick properties from a
// replayable seed, so that the tier-1 gate (`go test ./...`) draws the
// same inputs on every run and a failure can be replayed. It is
// imported by tests only: every property test calls Check instead of
// quick.Check.
//
// By default every property draws from DefaultSeed. MDTASK_QUICK_SEED
// replays another seed; MDTASK_QUICK_SOAK (any non-empty value, as
// `make soak` sets it) draws a fresh seed per test and runs 10× each
// property's MaxCount, so exploration goes on outside tier-1. A
// failure names its seed and the environment that replays it.
package proptest

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

// DefaultSeed is the seed every property draws from unless
// MDTASK_QUICK_SEED or MDTASK_QUICK_SOAK says otherwise.
const DefaultSeed int64 = 1

// soakScale multiplies MaxCount under MDTASK_QUICK_SOAK.
const soakScale = 10

// Check runs quick.Check(f, cfg) with cfg's generator seeded as the
// package doc says (cfg itself is not modified; nil is the zero
// Config), and fails t with the seed and its replay on a
// counterexample.
func Check(t testing.TB, f any, cfg *quick.Config) {
	t.Helper()
	var c quick.Config
	if cfg != nil {
		c = *cfg
	}
	seed := DefaultSeed
	soak := os.Getenv("MDTASK_QUICK_SOAK") != ""
	if soak {
		seed = time.Now().UnixNano()
		if c.MaxCount == 0 {
			c.MaxCount = 100 // quick's default
		}
		c.MaxCount *= soakScale
	}
	if s := os.Getenv("MDTASK_QUICK_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("proptest: MDTASK_QUICK_SEED=%q: %v", s, err)
		}
		seed = v
	}
	c.Rand = rand.New(rand.NewSource(seed))
	if err := quick.Check(f, &c); err != nil {
		replay := "MDTASK_QUICK_SEED=" + strconv.FormatInt(seed, 10)
		if soak {
			replay += " MDTASK_QUICK_SOAK=1"
		}
		t.Errorf("%v\nproptest: seed %d; replay with %s go test -run '^%s$'", err, seed, replay, t.Name())
	}
}
