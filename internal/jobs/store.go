package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"mdtask/internal/faultinject"
	"mdtask/internal/obs"
	"mdtask/internal/wal"
)

// Store is the durability sink the scheduler journals every job
// lifecycle transition through: the submitted (normalized) spec and
// cache key, each state change with its error message or result
// digest, prunes of evicted terminal records, and a clean-shutdown
// marker. A nil Store in Options leaves the scheduler memory-only
// (the pre-durability behaviour); WALStore is the crash-recoverable
// implementation cmd/mdserver wires in under -data-dir.
//
// Only the records an HTTP answer waits on are fsynced before their
// call returns: the submission (the POST answer) and the cancelled
// state (a queued job's DELETE answer). Every other record is written
// in order and becomes durable with the next fsync; a power loss
// before it re-runs the job (a lost running or terminal record) or
// prunes it again later (a lost prune). A process kill loses nothing.
type Store interface {
	// JournalSubmit records an admitted job: its normalized spec, cache
	// key, and initial state (StateQueued, or StateDone with a digest
	// for a whole-job cache hit). A non-nil error MUST mean the record
	// is not durable — the scheduler un-admits the job and fails the
	// submission, so no acknowledged job can be lost.
	JournalSubmit(rec JobRecord) error
	// JournalState records a lifecycle transition. Only StateCancelled
	// is durable on return; the others wait for the next fsync.
	JournalState(id string, state State, errMsg, resultDigest string, ts time.Time) error
	// JournalPrune records the eviction of terminal job records, so
	// replay state stays bounded alongside the in-memory table. The
	// record waits for the next fsync.
	JournalPrune(ids []string) error
	// JournalShutdown records a clean shutdown: every transition before
	// it is known journaled.
	JournalShutdown() error
}

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

// WALStoreOptions sizes a WALStore.
type WALStoreOptions struct {
	// Dir is the data directory (wal.log + snapshot live here).
	Dir string
	// Sync is the fsync policy (default wal.SyncAlways: an acknowledged
	// submission survives SIGKILL).
	Sync wal.SyncPolicy
	// SyncInterval bounds the unsynced window under wal.SyncInterval.
	SyncInterval time.Duration
	// CompactBytes triggers snapshot + log truncation when the log
	// exceeds this size (< 1: 1 MiB).
	CompactBytes int64
	// CompactRecords triggers compaction after this many appends since
	// the last snapshot (< 1: 1024).
	CompactRecords int
}

// WALStore is the durable Store: a write-ahead log of lifecycle
// records plus a shadow job table it snapshots and compacts from.
// All methods are safe for concurrent use.
type WALStore struct {
	mu           sync.Mutex
	log          *wal.Log
	o            WALStoreOptions
	lsn          uint64
	jobs         map[string]*shadowJob
	order        []string // submission order; may hold pruned or repeated ids
	sinceCompact int

	recovered   Recovered
	journalErrs int64
}

// shadowJob is one job of the shadow table: its record and the index
// in WALStore.order of its submission. An order entry is live only
// when the job it names is in the table and sits at that index, so a
// prune deletes from the map alone and leaves its order entries stale;
// reorder drops them.
type shadowJob struct {
	JobRecord
	at int
}

// OpenWALStore opens (or creates) the durable job store under o.Dir
// and replays snapshot + log into the recovered job table. The store
// is ready for journaling on return; feed Recovered.Jobs to
// Scheduler.Recover to re-admit them.
func OpenWALStore(o WALStoreOptions) (*WALStore, *Recovered, error) {
	if o.CompactBytes < 1 {
		o.CompactBytes = 1 << 20
	}
	if o.CompactRecords < 1 {
		o.CompactRecords = 1024
	}
	l, walRec, err := wal.Open(wal.Options{Dir: o.Dir, Sync: o.Sync, SyncInterval: o.SyncInterval})
	if err != nil {
		return nil, nil, err
	}
	st := &WALStore{
		log:  l,
		o:    o,
		jobs: make(map[string]*shadowJob),
	}
	rec := &Recovered{Skipped: walRec.Skipped, SkippedBytes: walRec.SkippedBytes}
	if walRec.Snapshot != nil {
		var snap snapshotState
		if err := json.Unmarshal(walRec.Snapshot, &snap); err != nil {
			l.Close()
			return nil, nil, fmt.Errorf("jobs: decoding journal snapshot: %w", err)
		}
		st.lsn = snap.LSN
		for _, j := range snap.Jobs {
			st.admit(j)
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
	rec.Jobs = st.tableLocked()
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
	if st.apply(r) {
		return
	}
	rec.Unreplayable++
	if r.T == "state" {
		// A transition without its submission (lost to a skipped
		// region): surface the job as failed rather than dropping the
		// evidence it existed.
		st.admit(JobRecord{
			ID:    r.ID,
			State: StateFailed,
			Error: fmt.Sprintf("jobs: unreplayable journal: %q transition without a surviving submit record", r.State),
		})
	}
}

// apply folds one journal record into the shadow table — the one code
// path for a record replayed at open and a record just appended. It
// reports false, changing nothing, for a record that cannot be applied:
// a submit without its job, a state record for a job the table does not
// hold, or an unknown type.
func (st *WALStore) apply(r walRecord) bool {
	switch r.T {
	case "submit":
		if r.Job == nil {
			return false
		}
		if j, dup := st.jobs[r.Job.ID]; dup {
			j.JobRecord = *r.Job
		} else {
			st.admit(*r.Job)
		}
	case "state":
		j, ok := st.jobs[r.ID]
		if !ok {
			return false
		}
		j.State, j.Error, j.Digest, j.Updated = r.State, r.Err, r.Digest, r.TS
	case "prune":
		for _, id := range r.IDs {
			delete(st.jobs, id)
		}
		if len(st.order) > 2*len(st.jobs) {
			st.reorder()
		}
	case "shutdown":
	default:
		return false
	}
	return true
}

// admit adds a job the table does not hold, last in submission order.
func (st *WALStore) admit(j JobRecord) {
	st.jobs[j.ID] = &shadowJob{JobRecord: j, at: len(st.order)}
	st.order = append(st.order, j.ID)
}

// live reports whether order entry i names the job's submission, not a
// pruned or earlier one.
func (st *WALStore) live(i int) (*shadowJob, bool) {
	j, ok := st.jobs[st.order[i]]
	return j, ok && j.at == i
}

// reorder drops the stale entries of st.order, in place. A prune calls
// it once stale entries outnumber live ones, so each costs O(1)
// amortized and order stays within twice the table.
func (st *WALStore) reorder() {
	kept := st.order[:0]
	for i := range st.order {
		if j, ok := st.live(i); ok {
			j.at = len(kept)
			kept = append(kept, j.ID)
		}
	}
	clear(st.order[len(kept):])
	st.order = kept
}

// tableLocked copies the shadow table in submission order.
func (st *WALStore) tableLocked() []JobRecord {
	out := make([]JobRecord, 0, len(st.jobs))
	for i := range st.order {
		if j, ok := st.live(i); ok {
			out = append(out, j.JobRecord)
		}
	}
	return out
}

// append journals one record and compacts if the log has grown past
// its bounds.
func (st *WALStore) append(r walRecord, durable bool) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.writeLocked(r, durable); err != nil {
		return err
	}
	st.sinceCompact++
	if st.sinceCompact >= st.o.CompactRecords || st.log.LogBytes() >= st.o.CompactBytes {
		st.compactLocked()
	}
	return nil
}

// writeLocked assigns the next LSN, writes the record to the WAL
// (fsynced per the policy when durable is set, riding the next fsync
// otherwise) and applies it to the shadow table as replay would.
// Callers hold st.mu.
func (st *WALStore) writeLocked(r walRecord, durable bool) error {
	if err := faultinject.Fire("jobs.journal"); err != nil {
		st.journalErrs++
		return err
	}
	st.lsn++
	r.LSN = st.lsn
	raw, err := json.Marshal(r)
	if err != nil {
		st.journalErrs++
		return err
	}
	write := st.log.AppendNoSync
	if durable {
		write = st.log.Append
	}
	if err := write(raw); err != nil {
		st.journalErrs++
		st.lsn--
		return err
	}
	st.apply(r)
	return nil
}

// compactLocked snapshots the shadow table and truncates the log.
// Failures are counted, not fatal: the un-compacted log remains fully
// replayable.
func (st *WALStore) compactLocked() {
	st.reorder()
	state, err := json.Marshal(snapshotState{LSN: st.lsn, Jobs: st.tableLocked()})
	if err != nil {
		st.journalErrs++
		return
	}
	if err := st.log.Compact(state); err != nil {
		st.journalErrs++
		return
	}
	st.sinceCompact = 0
}

// JournalSubmit implements Store. The record is fsynced (per the sync
// policy) before it returns.
func (st *WALStore) JournalSubmit(rec JobRecord) error {
	return st.append(walRecord{T: "submit", Job: &rec}, true)
}

// JournalState implements Store. Only a cancel is fsynced before it
// returns: a queued job's DELETE answers 200 after it.
func (st *WALStore) JournalState(id string, state State, errMsg, resultDigest string, ts time.Time) error {
	r := walRecord{T: "state", ID: id, State: state, Err: errMsg, Digest: resultDigest, TS: ts}
	return st.append(r, state == StateCancelled)
}

// JournalPrune implements Store.
func (st *WALStore) JournalPrune(ids []string) error {
	return st.append(walRecord{T: "prune", IDs: ids}, false)
}

// JournalShutdown implements Store. It compacts first, then writes the
// marker and fsyncs once, so a clean restart replays a snapshot plus
// exactly one shutdown record instead of the whole session's log. The
// marker is written outside the compaction accounting: a compaction
// triggered by the marker's own append (CompactRecords=1) would
// truncate it and make the clean shutdown replay as unclean.
func (st *WALStore) JournalShutdown() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.compactLocked()
	if err := st.writeLocked(walRecord{T: "shutdown"}, false); err != nil {
		return err
	}
	return st.log.Sync()
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
		"Journal writes that failed (the affected submissions were rejected).",
		func() float64 { return float64(st.JournalErrors()) })
}

// resultDigestOf content-addresses a job result (hex SHA-256 of its
// canonical JSON encoding); journaled so a recovered StateDone record
// can be checked against a recomputation.
func resultDigestOf(r *Result) string {
	if r == nil {
		return ""
	}
	raw, err := json.Marshal(r)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}
