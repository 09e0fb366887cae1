package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mdtask/internal/blockstore"
	"mdtask/internal/psa"
	"mdtask/internal/wal"
)

// instantRegistry registers a serial PSA runner that returns a fixed
// result at once, so the journal, not the kernel, sets the pace.
func instantRegistry() *Registry {
	reg := NewRegistry()
	res := &Result{Matrix: psa.NewMatrix(2)}
	must(reg.Register(RunnerName(AnalysisPSA, EngineSerial),
		func(*RunContext, Spec, *Input) (*Result, error) { return res, nil }))
	return reg
}

// TestRetentionCrashImageHasNoGhosts runs concurrent submitters and
// cancels against a tiny retention bound with compaction off, so the
// log holds every prune. Retention may evict only a job whose terminal
// record is already in the log: a prune written ahead of its job's done
// or cancelled record replays as that record without a submit, and the
// job comes back as a ghost failed job. No runner here ever fails, so a
// failed job in the crash image's replay is a ghost.
func TestRetentionCrashImageHasNoGhosts(t *testing.T) {
	for _, maxJobs := range []int{1, 8} {
		t.Run(fmt.Sprint("max", maxJobs), func(t *testing.T) {
			dir := t.TempDir()
			st, _ := openStore(t, dir, func(o *WALStoreOptions) {
				o.Sync = wal.SyncNever
				o.compactMin = 1 << 40
			})
			s := NewScheduler(instantRegistry(), Options{Workers: 2, QueueDepth: 1024, MaxJobs: maxJobs, Journal: st})
			const submitters, perSubmitter = 4, 100
			var wg sync.WaitGroup
			for g := 0; g < submitters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perSubmitter; i++ {
						job, err := s.Submit(serialSpec(uint64(g*perSubmitter + i + 1)))
						if err != nil {
							t.Error(err)
							return
						}
						if i%3 == 0 {
							s.Cancel(job.ID())
						}
					}
				}(g)
			}
			wg.Wait()
			for _, job := range s.Jobs() {
				waitTerminal(t, job)
			}
			img := copyDir(t, dir)
			s.Close()
			st.Close()

			st2, rec := openStore(t, img)
			defer st2.Close()
			if rec.Unreplayable != 0 {
				t.Errorf("crash image replayed %d unreplayable records, want 0", rec.Unreplayable)
			}
			for _, j := range rec.Jobs {
				if j.State == StateFailed {
					t.Errorf("ghost job %s recovered failed: %s", j.ID, j.Error)
				}
			}
		})
	}
}

// TestLegacyJournalImages opens data directories the journal wrote
// before the scheduler and the store shared one table — a crash image
// and a clean shutdown of one scheduler run, and a store driven with
// fixed timestamps — and checks that each recovers to the table and
// the counts recorded then. The fixed run is repeated: the same calls
// must write byte-identical wal.log and snapshot files.
func TestLegacyJournalImages(t *testing.T) {
	const root = "testdata/journal"
	for _, name := range []string{"legacy-crash", "legacy-clean", "legacy-fixed"} {
		want, err := os.ReadFile(filepath.Join(root, name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		st, rec := openStore(t, copyDir(t, filepath.Join(root, name)))
		st.Close()
		got, err := json.MarshalIndent(rec, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if string(got)+"\n" != string(want) {
			t.Errorf("%s recovered\n%s\nwant\n%s", name, got, want)
		}
	}

	dir := t.TempDir()
	st, _ := openStore(t, dir, func(o *WALStoreOptions) { o.compactMin = 1 })
	ts := time.Unix(1700000000, 123456789).UTC()
	for i := 1; i <= 6; i++ {
		id := fmt.Sprintf("job-%06d", i)
		must(st.JournalSubmit(testRecord(id)))
		must(st.JournalState(id, StateRunning, "", "", ts.Add(time.Duration(i)*time.Second)))
		switch i % 3 {
		case 0:
			must(st.JournalState(id, StateDone, "", fmt.Sprintf("%064x", i), ts.Add(time.Duration(i)*time.Minute)))
		case 1:
			must(st.JournalState(id, StateFailed, "boom", "", ts.Add(time.Duration(i)*time.Minute)))
		}
		if i == 4 {
			prune(t, st, "job-000001", "job-000003")
		}
	}
	must(st.JournalState("job-000005", StateCancelled, "", "", ts.Add(time.Hour)))
	must(st.shutdown())
	st.Close()
	for _, f := range []string{"wal.log", "snapshot"} {
		got, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(root, "legacy-fixed", f))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the earlier journal's bytes:\n%s\nwant\n%s", f, got, want)
		}
	}
}

// replayHarness drives one Scheduler over a WALStore in a temporary
// directory, with a runner that parks every job until the harness
// releases it with an outcome. One worker and a shared block store
// make every step deterministic: at most one job runs, and a done job's
// resubmission is a whole-job cache hit, across restarts too.
type replayHarness struct {
	t       *testing.T
	dir     string
	blocks  *blockstore.Store
	reg     *Registry
	st      *WALStore
	s       *Scheduler
	started chan struct{} // one send per job a worker starts
	release chan error    // the parked job's outcome
	running *Job          // the parked job, if any
	seeds   map[string]uint64
	next    uint64
}

func newReplayHarness(t *testing.T) *replayHarness {
	h := &replayHarness{
		t:       t,
		dir:     t.TempDir(),
		blocks:  blockstore.New(0),
		reg:     NewRegistry(),
		started: make(chan struct{}),
		release: make(chan error),
		seeds:   make(map[string]uint64),
	}
	res := &Result{Matrix: psa.NewMatrix(2)}
	must(h.reg.Register(RunnerName(AnalysisPSA, EngineSerial), func(*RunContext, Spec, *Input) (*Result, error) {
		h.started <- struct{}{}
		if err := <-h.release; err != nil {
			return nil, err
		}
		return res, nil
	}))
	h.open()
	return h
}

// open opens the store on the harness directory and recovers a
// scheduler over it.
func (h *replayHarness) open() {
	h.st, _ = openStore(h.t, h.dir, func(o *WALStoreOptions) { o.compactMin = 1 })
	h.s = NewScheduler(h.reg, Options{Workers: 1, MaxJobs: 2, BlockStore: h.blocks, Journal: h.st})
	h.s.Recover()
}

// inState returns the oldest job of the live table in state, if any.
func (h *replayHarness) inState(state State) *Job {
	for _, j := range h.s.Jobs() {
		if j.record().State == state {
			return j
		}
	}
	return nil
}

// finish releases the parked job with outcome and waits for its state.
func (h *replayHarness) finish(outcome error) {
	h.release <- outcome
	waitTerminal(h.t, h.running)
	h.running = nil
}

// settle waits until the only worker is parked in a job or has nothing
// queued to pick up, so the table cannot change under the check. A job
// reads running before its runner reports, so a running job the
// harness has not seen start is one still to be waited for.
func (h *replayHarness) settle() {
	if h.running != nil || h.inState(StateQueued) == nil && h.inState(StateRunning) == nil {
		return
	}
	select {
	case <-h.started:
	case <-time.After(30 * time.Second):
		h.t.Fatal("a queued job never started")
	}
	h.running = h.inState(StateRunning)
}

func (h *replayHarness) submit(seed uint64) {
	job, err := h.s.Submit(serialSpec(seed))
	if err != nil {
		h.t.Fatal(err)
	}
	h.seeds[job.ID()] = seed
}

// step applies one operation.
func (h *replayHarness) step(op byte) {
	switch op % 9 {
	case 0: // submit
		h.next++
		h.submit(h.next)
	case 1: // resubmit a done job's spec: a whole-job cache hit
		if j := h.inState(StateDone); j != nil {
			h.submit(h.seeds[j.ID()])
		}
	case 2: // run to done
		if h.running != nil {
			h.finish(nil)
		}
	case 3: // run to failure
		if h.running != nil {
			h.finish(errors.New("fuzz: run failed"))
		}
	case 4: // cancel while queued
		if j := h.inState(StateQueued); j != nil {
			if _, changed := h.s.Cancel(j.ID()); !changed {
				h.t.Fatalf("cancel of queued %s changed nothing", j.ID())
			}
		}
	case 5: // cancel while running
		if h.running != nil {
			if _, changed := h.s.Cancel(h.running.ID()); !changed {
				h.t.Fatalf("cancel of running %s changed nothing", h.running.ID())
			}
			h.finish(ErrCancelled)
		}
	case 6: // retention
		h.st.retain(h.s.maxJobs)
	case 7: // compaction
		h.st.mu.Lock()
		h.st.compactLocked()
		h.st.mu.Unlock()
	case 8: // shutdown, then restart on the same directory
		h.s.BeginDrain()
		if h.running != nil {
			h.finish(nil)
		}
		h.s.Close()
		h.st.Close()
		h.open()
	}
	h.settle()
}

// check compares the live table with the replay of a byte copy of the
// data directory.
func (h *replayHarness) check(step int) {
	live := make([]JobRecord, 0)
	for _, j := range h.s.Jobs() {
		live = append(live, j.record())
	}
	st, rec := openStore(h.t, copyDir(h.t, h.dir))
	st.Close()
	if rec.Skipped != 0 || rec.Unreplayable != 0 {
		h.t.Fatalf("step %d: replay skipped %d and could not apply %d records", step, rec.Skipped, rec.Unreplayable)
	}
	if got, want := tableJSON(h.t, rec.Jobs), tableJSON(h.t, live); got != want {
		h.t.Fatalf("step %d: replay\n%s\nlive table\n%s", step, got, want)
	}
}

// close stops the scheduler, leaving queued jobs queued.
func (h *replayHarness) close() {
	h.s.BeginDrain()
	if h.running != nil {
		h.finish(nil)
	}
	h.s.Close()
	h.st.Close()
}

// FuzzJournalReplay drives a real Scheduler and WALStore with one
// operation per input byte: submit, a cache-hit resubmission, the
// running job run to done or to failure, a cancel while queued and
// while running, retention, compaction (compactMin is 1, so the log
// compacts whenever it outgrows the last snapshot, on the other steps
// too) and a shutdown with a restart on the same
// directory. After every step the live table, as JobRecords in order,
// must equal OpenWALStore's replay of a byte copy of the directory,
// with nothing skipped or unreplayable: the table is what the journal
// replays to.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		h := newReplayHarness(t)
		defer h.close()
		for i, op := range ops {
			h.step(op)
			h.check(i)
		}
	})
}
