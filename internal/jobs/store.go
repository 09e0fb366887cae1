package jobs

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"mdtask/internal/faultinject"
	"mdtask/internal/obs"
	"mdtask/internal/wal"
)

// JobRecord is the durable image of one job: everything recovery
// needs to re-admit it (specs are normalized before journaling, so
// replay never re-validates defaults). Result bodies are NOT
// journaled — only their digest — so a job recovered in StateDone
// keeps its status and provenance but must be resubmitted to
// recompute its matrix (deterministic kernels make the recomputation
// byte-identical).
type JobRecord struct {
	ID      string    `json:"id"`
	Spec    Spec      `json:"spec"`
	Key     string    `json:"key"`
	State   State     `json:"state"`
	Error   string    `json:"error,omitempty"`
	Digest  string    `json:"digest,omitempty"`
	Created time.Time `json:"created"`
	Updated time.Time `json:"updated"`
}

// walRecord is the JSON wire format of one journal entry. LSN is a
// monotone sequence number persisted in snapshots, making replay of a
// log that still carries pre-snapshot records (a crash between
// snapshot rename and log truncation) a no-op for the already-applied
// prefix.
type walRecord struct {
	LSN    uint64     `json:"lsn"`
	T      string     `json:"t"` // submit | state | prune | shutdown
	Job    *JobRecord `json:"job,omitempty"`
	ID     string     `json:"id,omitempty"`
	State  State      `json:"state,omitempty"`
	Err    string     `json:"err,omitempty"`
	Digest string     `json:"digest,omitempty"`
	IDs    []string   `json:"ids,omitempty"`
	TS     time.Time  `json:"ts,omitempty"`

	// job is the live path's handle on the job a submit admits, its
	// runtime handles attached; replay leaves it nil and apply makes a
	// bare one. Unexported, so never journaled.
	job *Job
}

// snapshotState is the compacted journal state: the job table at the
// snapshot LSN.
type snapshotState struct {
	LSN  uint64      `json:"lsn"`
	Jobs []JobRecord `json:"jobs"`
}

// Recovered is what OpenWALStore reconstructed from disk.
type Recovered struct {
	// Jobs is the recovered job table in original submission order.
	Jobs []JobRecord
	// Replayed counts journal records applied during recovery
	// (including records a snapshot had already absorbed).
	Replayed int
	// Skipped counts regions the WAL layer could not decode: a torn
	// tail and bit-flipped (CRC-mismatched or corrupted-header)
	// records. Zero on a healthy log.
	Skipped int
	// SkippedBytes is the total size of the skipped regions — one
	// frame's worth for a flipped bit, everything after the damage for
	// a lost log suffix.
	SkippedBytes int64
	// Unreplayable counts records that decoded but could not be applied
	// (unknown type, state for a never-submitted job, unparseable JSON).
	// Affected jobs are surfaced as StateFailed with a reason rather
	// than silently dropped.
	Unreplayable int
	// CleanShutdown reports whether the journal ends with a shutdown
	// marker — an unclean log means the process died with the journal
	// mid-story and recovery re-runs whatever was in flight.
	CleanShutdown bool
}

// WALStoreOptions places a WALStore and sets its fsync policy.
type WALStoreOptions struct {
	// Dir is the data directory (wal.log + snapshot live here).
	Dir string
	// Sync is the fsync policy (default wal.SyncAlways: an acknowledged
	// submission survives SIGKILL).
	Sync wal.SyncPolicy

	// compactMin is the least log size that triggers a compaction (< 1:
	// compactBytes); tests lower it to compact mid-run.
	compactMin int64
}

// compactBytes is the least log size that triggers a snapshot + log
// truncation. The log is compacted once it reaches max(compactBytes,
// size of the last snapshot), so a compaction follows at least as many
// log bytes as it writes.
const compactBytes = 1 << 20

// WALStore is the job table and the write-ahead log that defines it.
// Every change to the table — a job admitted; its state, error, digest
// or updated time changed; a job pruned — is a walRecord, and apply is
// the only code that makes it. Replay at open applies the records read
// back; the live path appends a record and applies it in one critical
// section of mu, the table lock. A WALStore without a log (a
// memory-only scheduler's) applies the same records and writes none.
// All methods are safe for concurrent use.
//
// Only the records an HTTP answer waits on are fsynced before their
// call returns: the submission (the POST answer) and the cancelled
// state (a queued job's DELETE answer). Every other record is written
// in order and becomes durable with the next fsync; a power loss
// before it re-runs the job (a lost running or terminal record) or
// prunes it again later (a lost prune). A process kill loses nothing.
//
// The journal's work per job is constant: each record is encoded
// without reflection into one reused buffer, and the log is compacted
// only when it has grown as large as the snapshot that replaces it
// (see compactLocked), so snapshots cost no more bytes than the log
// they retire, and replay reads at most about twice the table.
type WALStore struct {
	mu        sync.Mutex
	log       *wal.Log // nil: memory-only
	o         WALStoreOptions
	lsn       uint64
	tab       table
	snapBytes int64  // size of the last snapshot encoded, or replayed at open
	compactAt int64  // log size that triggers the next compaction
	buf       []byte // encoding buffer of every record and snapshot

	recovered   Recovered
	journalErrs int64 // failed journal writes
	stateErrs   int64 // non-submission records applied though their write failed
}

// table is the job table: every retained job, by id and in submission
// order.
type table struct {
	jobs  map[string]*Job
	order []*Job
}

// newStore returns an empty table over log (nil: memory-only).
func newStore(log *wal.Log, o WALStoreOptions) *WALStore {
	return &WALStore{log: log, o: o, tab: table{jobs: make(map[string]*Job)}}
}

// OpenWALStore opens (or creates) the durable job store under o.Dir
// and replays snapshot + log into its job table. The store is ready
// for journaling on return; pass it as Options.Journal and call
// Scheduler.Recover to re-admit its jobs.
func OpenWALStore(o WALStoreOptions) (*WALStore, *Recovered, error) {
	if o.compactMin < 1 {
		o.compactMin = compactBytes
	}
	l, walRec, err := wal.Open(wal.Options{Dir: o.Dir, Sync: o.Sync})
	if err != nil {
		return nil, nil, err
	}
	st := newStore(l, o)
	st.snapBytes = int64(len(walRec.Snapshot))
	st.compactAt = max(o.compactMin, st.snapBytes)
	rec := &Recovered{Skipped: walRec.Skipped, SkippedBytes: walRec.SkippedBytes}
	if walRec.Snapshot != nil {
		var snap snapshotState
		if err := json.Unmarshal(walRec.Snapshot, &snap); err != nil {
			l.Close()
			return nil, nil, fmt.Errorf("jobs: decoding journal snapshot: %w", err)
		}
		st.lsn = snap.LSN
		for i := range snap.Jobs {
			st.tab.apply(walRecord{T: "submit", Job: &snap.Jobs[i]})
		}
	}
	// The guard below compares against the LSN the snapshot was taken
	// at, NOT the running st.lsn: replay is last-writer-wins, so a
	// duplicate LSN in the log (a failed append whose rollback did not
	// reach the disk before a crash, followed by a reuse of its number)
	// applies both records in order instead of silently dropping the
	// acknowledged one.
	snapLSN := st.lsn
	for _, raw := range walRec.Records {
		st.replay(raw, snapLSN, rec)
	}
	st.recovered = *rec
	rec.Jobs = st.tab.records()
	return st, rec, nil
}

// replay applies one raw journal record read back at open. snapLSN is
// the LSN the snapshot (if any) was taken at; records at or below it
// were already absorbed. Above it, records apply unconditionally —
// last-writer-wins on a duplicate LSN (see OpenWALStore).
func (st *WALStore) replay(raw []byte, snapLSN uint64, rec *Recovered) {
	var r walRecord
	if err := json.Unmarshal(raw, &r); err != nil {
		rec.Unreplayable++
		rec.CleanShutdown = false
		return
	}
	rec.Replayed++
	if r.LSN <= snapLSN {
		// Already absorbed by the snapshot (crash landed between
		// snapshot rename and log truncation): re-applying is a no-op.
		return
	}
	if r.LSN > st.lsn {
		st.lsn = r.LSN
	}
	rec.CleanShutdown = r.T == "shutdown"
	if st.tab.apply(r) {
		return
	}
	rec.Unreplayable++
	if r.T == "state" {
		// A transition without its submission (lost to a skipped
		// region): surface the job as failed rather than dropping the
		// evidence it existed.
		st.tab.apply(walRecord{T: "submit", Job: &JobRecord{
			ID:    r.ID,
			State: StateFailed,
			Error: fmt.Sprintf("jobs: unreplayable journal: %q transition without a surviving submit record", r.State),
		}})
	}
}

// apply folds one journal record into the table: the one code path
// that admits a job, changes its durable fields or prunes it, for a
// record replayed at open and for a record just appended alike. It
// reports false, changing nothing, for a record that cannot be applied:
// a submit without its job, a state record for a job the table does not
// hold, or an unknown type. Callers hold the table lock; apply takes
// each changed job's own lock, so its readers need only that.
func (t *table) apply(r walRecord) bool {
	switch r.T {
	case "submit":
		if r.Job == nil {
			return false
		}
		if j, dup := t.jobs[r.Job.ID]; dup {
			j.mu.Lock()
			j.rec = *r.Job
			j.mu.Unlock()
			return true
		}
		j := r.job
		if j == nil {
			j = &Job{rc: NewRunContext()}
		}
		j.rec = *r.Job
		t.jobs[j.rec.ID] = j
		t.order = append(t.order, j)
	case "state":
		j, ok := t.jobs[r.ID]
		if !ok {
			return false
		}
		j.mu.Lock()
		j.rec.State, j.rec.Error, j.rec.Digest, j.rec.Updated = r.State, r.Err, r.Digest, r.TS
		j.mu.Unlock()
	case "prune":
		n := 0
		for _, id := range r.IDs {
			if _, ok := t.jobs[id]; ok {
				delete(t.jobs, id)
				n++
			}
		}
		// Pruned jobs are the oldest, so the scan stops early and the
		// rest of the order moves down in one copy.
		kept := t.order[:0]
		for i, j := range t.order {
			if n == 0 {
				kept = append(kept, t.order[i:]...)
				break
			}
			if t.jobs[j.rec.ID] == j {
				kept = append(kept, j)
			} else {
				n--
			}
		}
		clear(t.order[len(kept):])
		t.order = kept
	case "shutdown":
	default:
		return false
	}
	return true
}

// records copies the table's job records in submission order.
func (t *table) records() []JobRecord {
	out := make([]JobRecord, len(t.order))
	for i, j := range t.order {
		out[i] = j.rec
	}
	return out
}

// append commits one record (see commitLocked).
func (st *WALStore) append(r walRecord, durable bool) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.commitLocked(r, durable)
}

// commitLocked writes r to the log (fsynced per the policy when durable
// is set, riding the next fsync otherwise) and applies it to the table.
// A submission whose write fails is not applied: the caller rejects
// it. Any other record is applied anyway and counted in stateErrs —
// the table is what the process serves, and the next compaction
// snapshot carries the record the log missed. Callers hold st.mu.
func (st *WALStore) commitLocked(r walRecord, durable bool) error {
	err := st.writeLocked(r, durable)
	if err != nil {
		if r.T == "submit" {
			return err
		}
		st.stateErrs++
	}
	st.tab.apply(r)
	if err == nil && st.log != nil && st.log.LogBytes() >= st.compactAt {
		st.compactLocked()
	}
	return err
}

// writeLocked assigns the next LSN and writes the record to the WAL; a
// memory-only store writes nothing. Callers hold st.mu.
func (st *WALStore) writeLocked(r walRecord, durable bool) error {
	if st.log == nil {
		return nil
	}
	if err := faultinject.Fire("jobs.journal"); err != nil {
		st.journalErrs++
		return err
	}
	r.LSN = st.lsn + 1
	raw, err := appendRecord(st.buf[:0], &r)
	if err == nil {
		st.buf = raw
		write := st.log.AppendNoSync
		if durable {
			write = st.log.Append
		}
		err = write(raw)
	}
	if err != nil {
		st.journalErrs++
		return err
	}
	st.lsn = r.LSN
	return nil
}

// compactLocked snapshots the table, encoded from it in place, and
// truncates the log. The next compaction waits until the log has grown
// to max(compactMin, this snapshot's size) again: from empty after a
// success, and from its current size after a failure, so a snapshot
// that cannot be written is retried after that much more log, not on
// every append. Failures are counted, not fatal: the un-compacted log
// remains fully replayable.
func (st *WALStore) compactLocked() {
	state, err := appendSnapshot(st.buf[:0], st.lsn, st.tab.order)
	if err == nil {
		st.buf = state
		st.snapBytes = int64(len(state))
		err = st.log.Compact(state)
	}
	st.compactAt = max(st.o.compactMin, st.snapBytes)
	if err != nil {
		st.journalErrs++
		st.compactAt += st.log.LogBytes()
	}
}

// update decides and commits one state change of job j in a single
// critical section of the table lock: next sees j's current state and
// returns the record to commit, or false to commit nothing. A
// cancelled record is fsynced before update returns; the others ride
// the next fsync. It reports whether a record was committed.
func (st *WALStore) update(j *Job, next func(State) (walRecord, bool)) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	r, ok := next(j.rec.State)
	if ok {
		st.commitLocked(r, r.State == StateCancelled)
	}
	return ok
}

// retain prunes the oldest terminal jobs past max, as one prune
// record. It sees only states the log already holds, so no prune is
// written ahead of its job's terminal record.
func (st *WALStore) retain(max int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	excess := len(st.tab.order) - max
	var ids []string
	for _, j := range st.tab.order {
		if excess <= 0 {
			break
		}
		if j.rec.State.Terminal() {
			ids = append(ids, j.rec.ID)
			excess--
		}
	}
	if len(ids) > 0 {
		st.commitLocked(walRecord{T: "prune", IDs: ids}, false)
	}
}

// job looks a job up by id.
func (st *WALStore) job(id string) (*Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.tab.jobs[id]
	return j, ok
}

// list returns the table's jobs in submission order.
func (st *WALStore) list() []*Job {
	st.mu.Lock()
	defer st.mu.Unlock()
	return slices.Clone(st.tab.order)
}

// JournalSubmit journals an admitted job and adds it to the table: its
// normalized spec, cache key and initial state (StateQueued, or
// StateDone with a digest for a whole-job cache hit). The record is
// fsynced (per the sync policy) before it returns; an error means it
// is neither durable nor in the table.
func (st *WALStore) JournalSubmit(rec JobRecord) error {
	return st.append(walRecord{T: "submit", Job: &rec}, true)
}

// JournalState journals a lifecycle transition and applies it. Only a
// cancel is fsynced before it returns: a queued job's DELETE answers
// 200 after it.
func (st *WALStore) JournalState(id string, state State, errMsg, resultDigest string, ts time.Time) error {
	r := walRecord{T: "state", ID: id, State: state, Err: errMsg, Digest: resultDigest, TS: ts}
	return st.append(r, state == StateCancelled)
}

// shutdown records a clean shutdown: every transition before it is
// known journaled. It compacts first, then writes the marker and
// fsyncs once, so a clean restart replays a snapshot plus exactly one
// shutdown record instead of the whole session's log. The marker is
// written outside the compaction trigger: a compaction triggered by
// the marker's own append (a marker longer than a small table's
// snapshot) would truncate it and make the clean shutdown replay as
// unclean.
func (st *WALStore) shutdown() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.log == nil {
		return nil
	}
	st.compactLocked()
	err := st.writeLocked(walRecord{T: "shutdown"}, false)
	if err == nil {
		err = st.log.Sync()
	}
	if err != nil {
		st.stateErrs++
	}
	return err
}

// Close closes the underlying log.
func (st *WALStore) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.log.Close()
}

// JournalErrors counts failed journal writes since open.
func (st *WALStore) JournalErrors() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.journalErrs
}

// stateErrors counts the non-submission records applied to the table
// although their write failed, the shutdown marker included.
func (st *WALStore) stateErrors() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stateErrs
}

// RegisterMetrics exposes the store's durability accounting on a
// metrics registry: recovery results (replayed / skipped /
// unreplayable record counts — `wal_records_skipped` > 0 means the
// log saw corruption) and live WAL activity (appends, fsyncs,
// snapshots, log size, journal errors).
func (st *WALStore) RegisterMetrics(m *obs.Registry) {
	m.CounterFunc("mdtask_wal_records_replayed_total",
		"Journal records replayed during the last recovery.",
		func() float64 { return float64(st.recovered.Replayed) })
	m.CounterFunc("mdtask_wal_records_skipped_total",
		"Journal regions skipped during the last recovery (torn tail or CRC mismatch).",
		func() float64 { return float64(st.recovered.Skipped) })
	m.CounterFunc("mdtask_wal_bytes_skipped_total",
		"Total size of the journal regions skipped during the last recovery.",
		func() float64 { return float64(st.recovered.SkippedBytes) })
	m.CounterFunc("mdtask_wal_records_unreplayable_total",
		"Journal records that decoded but could not be applied; affected jobs are marked failed.",
		func() float64 { return float64(st.recovered.Unreplayable) })
	m.CounterFunc("mdtask_wal_appends_total",
		"Records appended to the job journal since boot.",
		func() float64 { return float64(st.log.Stats().Appends) })
	m.CounterFunc("mdtask_wal_fsyncs_total",
		"fsyncs issued by the job journal since boot.",
		func() float64 { return float64(st.log.Stats().Syncs) })
	m.CounterFunc("mdtask_wal_snapshots_total",
		"Snapshot + compaction cycles since boot.",
		func() float64 { return float64(st.log.Stats().Snapshots) })
	m.GaugeFunc("mdtask_wal_log_bytes",
		"Current size of the job journal's append-only log.",
		func() float64 { return float64(st.log.LogBytes()) })
	m.CounterFunc("mdtask_wal_journal_errors_total",
		"Journal writes and compactions that failed (a submission whose write failed was rejected).",
		func() float64 { return float64(st.JournalErrors()) })
}
