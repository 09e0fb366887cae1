package loadgen

import (
	"fmt"
	"strings"
	"time"
)

// runScenario executes one scenario with before/after metric snapshots
// and evaluates the shared deterministic invariants plus whatever
// scenario-specific checks the run registered via h.check. Harness
// errors (server unreachable, protocol violations) return err;
// invariant failures land in the report.
func (h *Harness) runScenario(sc Scenario) (*ScenarioReport, error) {
	rep := &ScenarioReport{Scenario: sc.Name, Description: sc.Description}
	if sc.NeedsWorkers {
		if n := h.workers(); n == 0 {
			if h.cfg.RequireWorkers {
				return nil, fmt.Errorf("no fleet workers registered (scenario needs them; started with -require-workers)")
			}
			rep.Skipped = true
			rep.SkipReason = "no fleet workers registered"
			h.cfg.Logf("scenario %-16s SKIPPED (no fleet workers)", sc.Name)
			return rep, nil
		}
	}
	h.cfg.Logf("scenario %-16s starting", sc.Name)
	h.reset()

	// The before snapshot must land on an idle scheduler, or counter
	// deltas would fold in the tail of the previous scenario.
	if err := h.drain(60 * time.Second); err != nil {
		return nil, err
	}
	before, err := h.snapshot()
	if err != nil {
		return nil, err
	}
	goBefore, goBeforeErr := h.goroutines()

	start := time.Now()
	if err := sc.run(h); err != nil {
		return nil, err
	}
	if err := h.drain(120 * time.Second); err != nil {
		return nil, err
	}
	rep.ElapsedMS = time.Since(start).Milliseconds()

	after, err := h.snapshot()
	if err != nil {
		return nil, err
	}

	h.mu.Lock()
	rep.Accepted = len(h.accepted)
	rep.Shed = h.shed
	rep.Oversized = h.oversized413
	rep.CacheHits = h.cacheHits
	rep.Cancelled = h.cancelled
	lost := append([]string(nil), h.lost...)
	retryMissing := h.retryAfterMissing
	sent := h.oversizedSent
	extra := append([]Invariant(nil), h.extra...)
	h.mu.Unlock()

	inv := func(name string, ok bool, format string, args ...interface{}) {
		rep.Invariants = append(rep.Invariants, Invariant{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}

	// Zero lost jobs: every accepted submission reached an allowed
	// terminal state. This is THE load-shedding contract — the server
	// may refuse work, it must never lose admitted work.
	inv("zero-lost-jobs", len(lost) == 0, "%d accepted jobs lost or mis-terminated %s", len(lost), strings.Join(lost, ","))

	// Accounting: counter deltas must match what the harness actually
	// did, exactly. Submitted counts acceptances (cache hits included);
	// rejected counts 429 sheds.
	if d, ok := Delta(before.prom, after.prom, "mdtask_jobs_submitted_total"); ok {
		inv("submitted-counter-exact", int(d) == rep.Accepted,
			"server counted %d submissions, harness had %d accepted", int(d), rep.Accepted)
	} else {
		inv("submitted-counter-exact", false, "mdtask_jobs_submitted_total not exposed")
	}
	if d, ok := Delta(before.prom, after.prom, "mdtask_jobs_rejected_total"); ok {
		inv("rejected-counter-exact", int(d) == rep.Shed,
			"server counted %d rejections, harness saw %d 429s", int(d), rep.Shed)
	} else if rep.Shed > 0 {
		inv("rejected-counter-exact", false, "saw %d 429s but mdtask_jobs_rejected_total not exposed", rep.Shed)
	}

	// Every 429 must carry Retry-After — shed clients need to know when
	// to come back.
	inv("429-has-retry-after", retryMissing == 0, "%d of %d 429 responses lacked Retry-After", retryMissing, rep.Shed)

	// Every oversized probe must be refused by the body bound.
	if sent > 0 {
		inv("oversized-rejected-413", rep.Oversized == sent, "%d of %d oversized bodies rejected", rep.Oversized, sent)
	}

	// Durability: the WAL must never skip records under load.
	if v, ok := after.prom.Value("mdtask_wal_records_skipped_total"); ok {
		inv("wal-records-skipped-zero", v == 0, "mdtask_wal_records_skipped_total=%g", v)
	}

	// Determinism: a rerun of a job recovered done from the journal must
	// reproduce the result digest on record.
	if v, ok := after.prom.Value("mdtask_jobs_result_digest_mismatch_total"); ok {
		inv("result-digest-mismatch-zero", v == 0, "mdtask_jobs_result_digest_mismatch_total=%g", v)
	} else {
		inv("result-digest-mismatch-zero", false, "mdtask_jobs_result_digest_mismatch_total not exposed")
	}

	// Durability cost: the journal fsyncs only the records an answer
	// waits on — a submission, a cancel — plus one per compaction. The
	// +1 absorbs a compaction landing between the two counters' scrapes.
	// A return to an fsync per lifecycle record (three per job) fails
	// here, deterministically, without timing anything.
	if d, ok := Delta(before.prom, after.prom, "mdtask_wal_fsyncs_total"); ok {
		snaps, _ := Delta(before.prom, after.prom, "mdtask_wal_snapshots_total")
		bound := float64(rep.Accepted+rep.Cancelled) + snaps + 1
		inv("wal-fsyncs-bounded", d <= bound,
			"Δfsyncs %g, bound %g (accepted %d + cancelled %d + Δsnapshots %g + 1)",
			d, bound, rep.Accepted, rep.Cancelled, snaps)
	}

	// Goroutine hygiene: after the drain the server must return to its
	// baseline (plus slack for idle HTTP keep-alive conns and timer
	// goroutines). Sampled with retries — goroutine exit is async.
	if goBeforeErr == nil {
		const slack = 20
		ok, goAfter := false, 0.0
		for i := 0; i < 20 && !ok; i++ {
			var err error
			if goAfter, err = h.goroutines(); err == nil && goAfter <= goBefore+slack {
				ok = true
				break
			}
			time.Sleep(250 * time.Millisecond)
		}
		inv("no-goroutine-leak", ok, "go_goroutines %g -> %g (slack %d)", goBefore, goAfter, slack)
	}

	// Chaos evidence: when the run is declared chaotic the coordinator
	// must show the faults actually fired — requeues, plus failed units
	// or lost workers. A chaos gate that passes with zero faults proves
	// nothing.
	if sc.ChaosOnly && h.cfg.Chaos {
		if after.fleet == nil {
			inv("chaos-faults-observed", false, "fleet stats unavailable: %v", after.fleetErr)
		} else {
			fb := before.fleet
			var reqB, failB, lostB int64
			if fb != nil {
				reqB, failB, lostB = fb.Requeues, fb.UnitFailures, fb.WorkersLost
			}
			dReq := after.fleet.Requeues - reqB
			dFail := after.fleet.UnitFailures - failB
			dLost := after.fleet.WorkersLost - lostB
			inv("chaos-faults-observed", dReq >= 1 && (dFail >= 1 || dLost >= 1),
				"requeues+%d unit_failures+%d workers_lost+%d", dReq, dFail, dLost)
		}
	}

	rep.Invariants = append(rep.Invariants, extra...)
	status := "ok"
	if !rep.OK() {
		status = "INVARIANT FAILURES"
	}
	h.cfg.Logf("scenario %-16s %s  accepted=%d shed=%d cache_hits=%d cancelled=%d elapsed=%dms",
		sc.Name, status, rep.Accepted, rep.Shed, rep.CacheHits, rep.Cancelled, rep.ElapsedMS)
	return rep, nil
}
