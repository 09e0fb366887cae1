// Package loadgen is the production load harness behind cmd/mdload: a
// Savina-style suite of named scenarios driven closed-loop against a
// live mdserver, and a set of deterministic invariants that gate CI.
//
// Each scenario exercises one production failure or contention mode —
// a cache-hot resubmit storm, a delta-append storm over growing
// ensembles, fleet fan-out across all four Hausdorff kernel methods, a
// cancellation storm, a streamed-versus-in-memory mix, queue overload
// (429) plus an oversized-body probe (413), and a chaos run against
// MDTASK_FAULTS-armed workers. Scenarios share one Harness: a bounded
// pool of closed-loop clients (each waits for its response before
// issuing the next request) and before/after metric snapshots scraped from /v1/metrics, /v1/fleet, and the
// Prometheus /metrics exposition.
//
// The gate deliberately checks only deterministic bookkeeping — jobs
// accepted equals the submitted-counter delta, shed requests equal the
// rejected-counter delta, every 429 carries Retry-After, every
// accepted job reaches a terminal state, wal_records_skipped stays
// zero, goroutine counts return to baseline — never wall-clock
// latency, so a slow CI runner cannot fail the build. Time is the
// end-to-end benchmark's question (benchmark/), not this harness's.
//
// The same client runs the repo's live-server gates (gates.go): the
// scenarios smoke-serve, smoke-cache, smoke-fleet, smoke-obs,
// smoke-crash and loadgate, each named after its make target, boot
// their own mdserver and mdworker processes through a Supervisor and
// record every check as a named invariant.
package loadgen

import (
	"fmt"
	"io"
	"slices"
	"time"
)

// Config sizes one harness run. The zero value of any knob falls back
// to the default noted on it.
type Config struct {
	// Server is the base URL of the live mdserver, e.g. "http://127.0.0.1:8077".
	Server string
	// Jobs scales every scenario's submission count (default 24;
	// scenarios derive their own working sizes from it, clamping where
	// a mode needs fewer).
	Jobs int
	// Concurrency is the closed-loop client count (default 8).
	Concurrency int
	// Seed makes every generated job spec deterministic; scenario
	// names are folded in so the same seed never collides across
	// scenarios within one run.
	Seed uint64
	// Chaos arms the chaos expectations: the chaos scenario then
	// REQUIRES evidence of injected faults (requeues, and unit
	// failures or lost workers) scraped from the coordinator. The
	// loadgate sets it for the leg it runs against a fault-armed worker.
	Chaos bool
	// OversizedBytes sizes the 413 probe body (default 2 MiB — above
	// mdserver's default -max-spec-bytes of 1 MiB).
	OversizedBytes int64
	// RequireWorkers makes scenarios that need fleet workers fail
	// instead of skipping when none are registered (set by a topology
	// that starts workers).
	RequireWorkers bool
	// ExpectShedding arms the overload scenario's "shedding-observed"
	// check: set it when the server's queue depth is sized below the
	// harness concurrency (as the loadgate's server is), so a run that
	// never provokes a 429 fails instead of silently proving nothing.
	ExpectShedding bool
	// Logf receives progress lines (default: discard).
	Logf func(format string, args ...interface{})
}

func (c Config) withDefaults() Config {
	if c.Jobs < 1 {
		c.Jobs = 24
	}
	if c.Concurrency < 1 {
		c.Concurrency = 8
	}
	if c.OversizedBytes < 1 {
		c.OversizedBytes = 2 << 20
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return c
}

// Invariant is one gate check's outcome.
type Invariant struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// ScenarioReport is one scenario's outcome: harness-side counters and
// the invariant verdicts.
type ScenarioReport struct {
	Scenario    string      `json:"scenario"`
	Description string      `json:"description,omitempty"`
	Skipped     bool        `json:"skipped,omitempty"`
	SkipReason  string      `json:"skip_reason,omitempty"`
	ElapsedMS   int64       `json:"elapsed_ms"`
	Accepted    int         `json:"jobs_accepted"`
	Shed        int         `json:"jobs_shed_429"`
	Oversized   int         `json:"oversized_413"`
	CacheHits   int         `json:"cache_hits"`
	Cancelled   int         `json:"jobs_cancelled"`
	Invariants  []Invariant `json:"invariants"`
}

// OK reports whether every invariant of the scenario held.
func (r ScenarioReport) OK() bool {
	for _, inv := range r.Invariants {
		if !inv.OK {
			return false
		}
	}
	return true
}

// Report is the whole run: what cmd/mdload -json serializes.
type Report struct {
	Benchmark string           `json:"benchmark"`
	Server    string           `json:"server"`
	Jobs      int              `json:"jobs"`
	Conc      int              `json:"concurrency"`
	Seed      uint64           `json:"seed"`
	Chaos     bool             `json:"chaos"`
	Scenarios []ScenarioReport `json:"scenarios"`
	OK        bool             `json:"invariants_ok"`
}

// Run executes the named scenarios (nil, empty or "all": the load
// suite, every scenario that does not boot its own processes) in
// order against one live server and returns the aggregate report. A
// scenario that needs fleet workers is skipped — not failed — when
// none are registered, unless cfg.RequireWorkers is set. The error is
// non-nil only for harness-level failures (unreachable server, unknown
// scenario); invariant violations are reported in the Report so the
// caller decides whether they gate.
func Run(cfg Config, names []string) (*Report, error) {
	cfg = cfg.withDefaults()
	list, err := resolve(names)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Benchmark: "mdserver-load",
		Server:    cfg.Server,
		Jobs:      cfg.Jobs,
		Conc:      cfg.Concurrency,
		Seed:      cfg.Seed,
		Chaos:     cfg.Chaos,
		OK:        true,
	}
	h := newHarness(cfg)
	if err := h.waitHealthy(30 * time.Second); err != nil {
		return nil, err
	}
	for _, sc := range list {
		sr, err := h.runScenario(sc)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		rep.Scenarios = append(rep.Scenarios, *sr)
		if !sr.OK() {
			rep.OK = false
		}
	}
	return rep, nil
}

// resolve maps scenario names to definitions; none or "all" is the
// load suite, every scenario that does not boot its own processes.
func resolve(names []string) ([]Scenario, error) {
	var out []Scenario
	if len(names) == 0 || slices.Contains(names, "all") {
		for _, sc := range Scenarios() {
			if sc.gate == nil {
				out = append(out, sc)
			}
		}
		return out, nil
	}
	for _, n := range names {
		sc, ok := Lookup(n)
		if !ok {
			return nil, fmt.Errorf("loadgen: unknown scenario %q (use -list)", n)
		}
		if sc.run == nil {
			return nil, fmt.Errorf("loadgen: scenario %q boots its own processes (run it alone, through mdload)", n)
		}
		out = append(out, sc)
	}
	return out, nil
}

// WriteReport renders the report as text: one line per skipped
// scenario, then every invariant verdict.
func WriteReport(w io.Writer, rep *Report) {
	for _, sc := range rep.Scenarios {
		if sc.Skipped {
			fmt.Fprintf(w, "%s (skipped: %s)\n", sc.Scenario, sc.SkipReason)
		}
	}
	fmt.Fprintln(w, "invariants:")
	for _, sc := range rep.Scenarios {
		for _, inv := range sc.Invariants {
			mark := "ok  "
			if !inv.OK {
				mark = "FAIL"
			}
			fmt.Fprintf(w, "  [%s] %s/%s", mark, sc.Scenario, inv.Name)
			if inv.Detail != "" {
				fmt.Fprintf(w, " — %s", inv.Detail)
			}
			fmt.Fprintln(w)
		}
	}
}
