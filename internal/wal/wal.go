// Package wal is a minimal, stdlib-only write-ahead record log with
// periodic snapshot + compaction, built for the durable job store but
// agnostic to what the records mean.
//
// On-disk layout under a data directory:
//
//	wal.log   append-only records: [len uint32 LE][crc32 uint32 LE][payload]
//	snapshot  latest compacted state: "MDTSNAP1" magic + one framed record
//
// Durability contract: a record whose Append returned nil under the
// SyncAlways policy survives a process kill or a power loss at any
// instant. A record whose AppendNoSync returned nil survives a process
// kill (its frame is in the page cache), and survives a power loss
// once a later fsync has returned: under SyncAlways, the next Append,
// Sync, Compact or Close. An Append or AppendNoSync that returned an
// error leaves no frame behind (a frame written but not fsynced is
// truncated away). Recovery tolerates a torn tail (a crash mid-write
// truncates back to the last complete record) and skips bit-flipped
// records — payload or header — by resynchronizing
// at the next frame whose CRC validates, so corruption orphans one
// region, not every later record; skipped regions are counted, with
// their byte size, so callers can alert instead of silently dropping
// state. Snapshots are written to a temp file, fsynced, and
// renamed into place, so a crash anywhere in Compact leaves either the
// old snapshot + full log or the new snapshot + (possibly) a log still
// carrying pre-snapshot records — callers make replay-over-snapshot a
// no-op by tagging records with a sequence number (see jobs.WALStore).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"mdtask/internal/faultinject"
)

const (
	logName      = "wal.log"
	snapName     = "snapshot"
	snapMagic    = "MDTSNAP1"
	headerSize   = 8        // uint32 length + uint32 CRC
	maxRecordLen = 64 << 20 // structural sanity bound: larger lengths are treated as corruption
)

// SyncPolicy selects when Append fsyncs the log.
type SyncPolicy string

// Sync policies. SyncAlways fsyncs every Append (the durability
// default: an acknowledged record survives a power loss). SyncNever
// leaves flushing to the OS. No policy makes AppendNoSync fsync.
const (
	SyncAlways SyncPolicy = "always"
	SyncNever  SyncPolicy = "never"
)

// ParseSyncPolicy validates a policy name ("" defaults to SyncAlways).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case "":
		return SyncAlways, nil
	case SyncAlways, SyncNever:
		return SyncPolicy(s), nil
	}
	return "", fmt.Errorf("wal: unknown sync policy %q (want always|never)", s)
}

// Options configures Open.
type Options struct {
	// Dir is the data directory (created if missing).
	Dir string
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
}

// Recovery is what Open found on disk: the latest snapshot payload
// (nil if none), every decodable record appended after it was taken,
// and the corruption accounting.
type Recovery struct {
	// Snapshot is the latest snapshot payload, nil when none exists.
	Snapshot []byte
	// Records are the log's decodable records, in append order.
	Records [][]byte
	// Skipped counts undecodable regions: a torn tail, a
	// CRC-mismatched record, or a corrupted-header gap the scan
	// resynchronized past. Zero on a healthy log.
	Skipped int
	// SkippedBytes is the total size of the skipped regions — the
	// telltale separating one flipped bit (a single frame's worth)
	// from a lost log suffix (everything after the damage).
	SkippedBytes int64
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	mu     sync.Mutex
	dir    string
	f      *os.File
	off    int64 // end of the last complete record; appends go here
	policy SyncPolicy
	closed bool
	frame  []byte // the frame being appended, reused by every append

	appends   int64
	syncs     int64
	snapshots int64
}

// Open creates or recovers the log under o.Dir, returning the log
// positioned for appends and everything recovery found. A torn tail is
// truncated away so subsequent appends land on a clean boundary.
func Open(o Options) (*Log, Recovery, error) {
	if o.Sync == "" {
		o.Sync = SyncAlways
	}
	var rec Recovery
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, rec, fmt.Errorf("wal: creating %s: %w", o.Dir, err)
	}
	snap, err := readSnapshot(filepath.Join(o.Dir, snapName))
	if err != nil {
		return nil, rec, err
	}
	rec.Snapshot = snap

	f, err := os.OpenFile(filepath.Join(o.Dir, logName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, rec, fmt.Errorf("wal: opening log: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, rec, fmt.Errorf("wal: reading log: %w", err)
	}
	records, off, skipped, skippedBytes := scan(data)
	rec.Records = records
	rec.Skipped = skipped
	rec.SkippedBytes = skippedBytes
	if off < int64(len(data)) {
		// Torn tail: drop it so the next append starts a clean frame.
		if err := f.Truncate(off); err != nil {
			f.Close()
			return nil, rec, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, rec, err
	}
	return &Log{dir: o.Dir, f: f, off: off, policy: o.Sync}, rec, nil
}

// scan decodes the framed records in data, returning them, the offset
// just past the last decodable record (where appends resume — any
// trailing bytes beyond it are truncated by Open), the count of
// skipped regions, and the skipped regions' total size. A frame that
// fails to validate — implausible length, running past EOF, or a CRC
// mismatch — starts a skipped region; the scan resynchronizes at the
// next offset holding a frame whose payload CRC validates, so a
// flipped bit (in a payload OR a header) orphans one region, not
// every later record. A region with no valid frame after it is the
// torn tail and ends the scan.
func scan(data []byte) (records [][]byte, off int64, skipped int, skippedBytes int64) {
	pos := 0
	for pos < len(data) {
		if n, ok := validFrameAt(data, pos); ok {
			payload := data[pos+headerSize : pos+headerSize+n]
			records = append(records, append([]byte(nil), payload...))
			pos += headerSize + n
			off = int64(pos)
			continue
		}
		skipped++
		next := resync(data, pos+1)
		if next < 0 {
			skippedBytes += int64(len(data) - pos)
			return records, off, skipped, skippedBytes
		}
		skippedBytes += int64(next - pos)
		pos = next
	}
	return records, off, skipped, skippedBytes
}

// validFrameAt reports whether pos holds a structurally plausible
// frame whose payload checksum validates, and its payload length.
func validFrameAt(data []byte, pos int) (n int, ok bool) {
	if len(data)-pos < headerSize {
		return 0, false
	}
	ln := binary.LittleEndian.Uint32(data[pos:])
	if ln > maxRecordLen || pos+headerSize+int(ln) > len(data) {
		return 0, false
	}
	crc := binary.LittleEndian.Uint32(data[pos+4:])
	if crc32.ChecksumIEEE(data[pos+headerSize:pos+headerSize+int(ln)]) != crc {
		return 0, false
	}
	return int(ln), true
}

// resync scans forward from pos for the next offset holding a valid
// frame — the point the log becomes trustworthy again after a
// corrupted region. The CRC check makes a false resync (random bytes
// parsing as a valid frame) a ~2^-32 event per offset. Returns -1
// when nothing before EOF validates: the region is the torn tail.
func resync(data []byte, pos int) int {
	for ; len(data)-pos >= headerSize; pos++ {
		if _, ok := validFrameAt(data, pos); ok {
			return pos
		}
	}
	return -1
}

// Append writes one record and, per the sync policy, fsyncs before
// returning. On any error — a failed write OR a failed post-write
// fsync — the log rolls back to the last good boundary (truncating
// the frame away), so a failed Append never leaves a frame a future
// recovery could half-trust. Callers that key state off Append's
// success (e.g. LSN assignment) should still treat a duplicate as
// possible after a crash, since the rollback itself is not guaranteed
// to reach the disk before a power loss.
func (l *Log) Append(payload []byte) error { return l.append(payload, true) }

// AppendNoSync writes one record like Append — the same frame, the same
// wal.append fault point, the same rollback of a partial write — but
// never fsyncs. It counts in Stats.Appends, not Syncs. The record is
// visible to a recovery after a process kill as soon as AppendNoSync
// returns, and survives a power loss once the next synced Append, Sync,
// Compact or Close has returned. A later synced Append whose fsync
// fails rolls back only its own frame.
func (l *Log) AppendNoSync(payload []byte) error { return l.append(payload, false) }

func (l *Log) append(payload []byte, durable bool) error {
	if len(payload) > maxRecordLen {
		return fmt.Errorf("wal: record of %d bytes exceeds the %d-byte bound", len(payload), maxRecordLen)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log closed")
	}
	frame := binary.LittleEndian.AppendUint32(l.frame[:0], uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	l.frame = frame
	if ferr := faultinject.Fire("wal.append"); ferr != nil {
		if errors.Is(ferr, faultinject.ErrPartial) {
			// Simulated torn write: half a frame hits the disk and the log
			// declares itself dead, as a crashed process would. Recovery
			// (a fresh Open on the same dir) must truncate the tail away.
			_, _ = l.f.Write(frame[:len(frame)/2])
			_ = l.f.Sync()
			l.closed = true
		}
		return ferr
	}
	n, err := l.f.Write(frame)
	if err != nil {
		l.rollback(int64(n))
		return fmt.Errorf("wal: append: %w", err)
	}
	l.off += int64(len(frame))
	if durable {
		if err := l.maybeSyncLocked(); err != nil {
			// The frame reached the file but its durability is unknown.
			// Roll it back so the failed Append leaves nothing behind:
			// otherwise a submission rejected here would resurface at the
			// next recovery, and a caller reusing its sequence number would
			// silently collide with the ghost frame.
			l.off -= int64(len(frame))
			l.rollback(int64(n))
			return err
		}
	}
	l.appends++
	return nil
}

// rollback best-effort truncates a partial or unsyncable frame after a
// failed append, restoring the last good boundary at l.off. The
// truncation is followed by a raw fsync so the removal itself is as
// durable as the environment allows; both are best effort — replay
// layers must tolerate a frame that survives anyway (see Append).
func (l *Log) rollback(wrote int64) {
	if wrote > 0 {
		_ = l.f.Truncate(l.off)
		_, _ = l.f.Seek(l.off, io.SeekStart)
		_ = l.f.Sync()
	}
}

// maybeSyncLocked applies the sync policy after an append.
func (l *Log) maybeSyncLocked() error {
	if l.policy == SyncNever {
		return nil
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := faultinject.Fire("wal.sync"); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.syncs++
	return nil
}

// Sync forces an fsync regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log closed")
	}
	return l.syncLocked()
}

// Compact atomically replaces the snapshot with state and resets the
// log: temp write + fsync + rename + directory fsync, then truncate.
// After Compact returns, recovery sees state plus only the records
// appended afterwards. A crash between rename and truncate leaves old
// records in the log; callers must make replaying them over the new
// snapshot a no-op.
func (l *Log) Compact(state []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log closed")
	}
	if err := writeSnapshot(l.dir, state); err != nil {
		return err
	}
	if err := faultinject.Fire("wal.compact.truncate"); err != nil {
		return err
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncating log after snapshot: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	l.off = 0
	l.snapshots++
	if l.policy != SyncNever {
		return l.syncLocked()
	}
	return nil
}

// Close fsyncs (unless SyncNever) and closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.policy != SyncNever {
		if serr := l.f.Sync(); serr == nil {
			l.syncs++
		} else {
			err = serr
		}
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats is the log's operation accounting plus its current size.
type Stats struct {
	Appends   int64
	Syncs     int64
	Snapshots int64
	LogBytes  int64
}

// Stats snapshots the log's accounting.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Appends: l.appends, Syncs: l.syncs, Snapshots: l.snapshots, LogBytes: l.off}
}

// LogBytes returns the current log size (appended, structurally valid
// bytes).
func (l *Log) LogBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.off
}

// writeSnapshot writes state to dir/snapshot via temp + fsync + atomic
// rename + directory fsync.
func writeSnapshot(dir string, state []byte) error {
	if err := faultinject.Fire("wal.snapshot.write"); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, snapName+".tmp-*")
	if err != nil {
		return fmt.Errorf("wal: snapshot temp: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	// The header and state go in two writes, so a large state is not
	// copied into a frame first.
	header := binary.LittleEndian.AppendUint32([]byte(snapMagic), uint32(len(state)))
	header = binary.LittleEndian.AppendUint32(header, crc32.ChecksumIEEE(state))
	for _, part := range [][]byte{header, state} {
		if _, err := tmp.Write(part); err != nil {
			tmp.Close()
			return fmt.Errorf("wal: snapshot write: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: snapshot fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, snapName)); err != nil {
		return fmt.Errorf("wal: snapshot rename: %w", err)
	}
	return syncDir(dir)
}

// readSnapshot loads and validates dir/snapshot; a missing file is
// (nil, nil). The rename protocol makes a torn snapshot impossible
// short of disk corruption, so validation failures are fatal rather
// than silently discarded state.
func readSnapshot(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: reading snapshot: %w", err)
	}
	if len(data) < len(snapMagic)+headerSize || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("wal: snapshot %s is corrupt (bad magic)", path)
	}
	n := binary.LittleEndian.Uint32(data[len(snapMagic):])
	crc := binary.LittleEndian.Uint32(data[len(snapMagic)+4:])
	payload := data[len(snapMagic)+headerSize:]
	if int(n) != len(payload) {
		return nil, fmt.Errorf("wal: snapshot %s is corrupt (length %d, have %d bytes)", path, n, len(payload))
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("wal: snapshot %s is corrupt (CRC mismatch)", path)
	}
	return payload, nil
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", dir, err)
	}
	return nil
}
