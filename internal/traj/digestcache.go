package traj

import (
	"container/list"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mdtask/internal/linalg"
)

// The file-identity digest cache: a plain .mdt file that Digest has
// hashed once is not hashed again while its identity stands. A
// streamed job's admission digests every member file, and a growing
// ensemble resubmits files (often hard links of one inode) that an
// earlier job already hashed; with the cache, admission reads only the
// bytes it has not seen.
//
// What a hit trusts is the stat of the descriptor it would have hashed:
// device, inode, size, mtime and ctime (fileIdentity). Any write to the
// file moves mtime and ctime, and ctime cannot be set back from
// userspace (os.Chtimes restores mtime, and moves ctime). Two
// refinements follow git's racy-git rule:
//
//   - The kernel stamps file times from a clock coarser than the writes
//     it stamps, so a write just after hashing began can leave both
//     times where they were. An identity whose mtime or ctime lies
//     within timestampGranularity of the moment hashing started is not
//     recorded; the next Digest hashes the file again, by then with
//     times old enough to trust.
//   - An identity that changed between the stat before hashing and the
//     stat after it is never recorded.
//
// A hit is served without reading the file, so it does not re-verify
// the payload checksum; any block the fold computes still reads the
// file front to back first, which does (see README, "What
// admission trusts").
//
// A recorded hash also keeps the file's sketch: the centroid and radius
// of gyration of every frame, computed from the rows the hash decoded.
// A window reader over the file serves its windows' statistics from the
// sketch instead of recomputing them, under the same trust: only when
// the descriptor it reads has the identity the sketch was recorded
// under (digestCache.sketchOf).

// fileIdentity is the stat a cached digest is keyed by.
type fileIdentity struct {
	dev, ino         uint64
	size             int64
	mtimeNs, ctimeNs int64
}

// Timestamp granularities the racy rule allows for. Where file times
// carry sub-second digits, the clock that stamps them lags real time by
// at most one scheduler tick (≤ 10 ms at HZ=100): fineTimestamps leaves
// a five-tick margin. A file whose mtime and ctime are both whole
// seconds is taken to live on a file system that stores whole seconds
// (FAT stores two).
const (
	fineTimestamps   = 50 * time.Millisecond
	coarseTimestamps = 2 * time.Second
)

// racy reports whether a digest hashed from start on must not be
// recorded under id: a write after start may have left id unchanged.
func racy(id fileIdentity, start time.Time) bool {
	gran := fineTimestamps
	if id.mtimeNs%1e9 == 0 && id.ctimeNs%1e9 == 0 {
		gran = coarseTimestamps
	}
	edge := start.UnixNano() - int64(gran)
	return id.mtimeNs >= edge || id.ctimeNs >= edge
}

// The cache's bounds. An entry costs digestEntryBytes (its list
// element, map slot, identity and hex digest) plus sketchFrameBytes a
// frame of sketch. A sketch that would make its entry larger than an
// eighth of digestCacheBytes is not recorded, and its digest still is,
// so no one file can flush most of the cache.
const (
	digestCacheEntries = 4096
	digestCacheBytes   = 32 << 20
	digestEntryBytes   = 256
	sketchFrameBytes   = 32 // a centroid (3 float64s) and a radius of gyration
)

// fileDigests is the process's cache; every plain-.mdt FileRef digests
// through it, and every plain-.mdt window reader looks for its sketch
// in it.
var fileDigests = newDigestCache(digestCacheEntries, digestCacheBytes)

// digestCache is a bounded LRU from file identity to content digest and
// sketch.
type digestCache struct {
	maxEntries int
	maxBytes   int64
	// clock, when set, is read instead of the wall clock for the moment
	// a hash starts, which the racy rule measures file times against
	// (SetDigestClock).
	clock atomic.Pointer[func() time.Time]

	mu    sync.Mutex
	lru   *list.List // of *digestEntry, most recently used first
	byID  map[fileIdentity]*list.Element
	bytes int64 // sum of the entries' size()

	hits, misses, racy atomic.Int64
}

// digestEntry is one recorded file. It is never modified once put, so
// its sketch may be shared with readers outside the lock.
type digestEntry struct {
	id              fileIdentity
	nAtoms, nFrames int
	digest          string
	sketch          *sketch // nil when too large to record
}

func (e *digestEntry) size() int64 { return digestEntryBytes + e.sketch.size() }

// sketch holds the per-frame statistics of one file, computed by the
// pass that digested it with the linalg.FrameStats a window decode
// would run on the same decoded rows, so a window served from it is
// bit-identical to one that computes. It is read-only once recorded: concurrent window
// readers slice it.
type sketch struct {
	centroids []linalg.Vec3
	radGyr    []float64
}

func newSketch(nFrames int) *sketch {
	return &sketch{centroids: make([]linalg.Vec3, nFrames), radGyr: make([]float64, nFrames)}
}

func (s *sketch) size() int64 {
	if s == nil {
		return 0
	}
	return sketchFrameBytes * int64(len(s.radGyr))
}

func newDigestCache(maxEntries int, maxBytes int64) *digestCache {
	return &digestCache{maxEntries: maxEntries, maxBytes: maxBytes, lru: list.New(), byID: make(map[fileIdentity]*list.Element)}
}

// SetDigestClock makes the process's digest cache read now, instead of
// the wall clock, as the moment a hash starts, until the returned
// function restores the clock it replaced. A clock ahead of a file's
// times puts the file outside the racy window without waiting it out;
// one at its times keeps it inside.
func SetDigestClock(now func() time.Time) (restore func()) {
	prev := fileDigests.clock.Swap(&now)
	return func() { fileDigests.clock.Store(prev) }
}

func (c *digestCache) now() time.Time {
	if now := c.clock.Load(); now != nil {
		return (*now)()
	}
	return time.Now()
}

// sketches reports whether a file of nFrames frames gets a sketch
// recorded with its digest.
func (c *digestCache) sketches(nFrames int) bool {
	return digestEntryBytes+sketchFrameBytes*int64(nFrames) <= c.maxBytes/8
}

// digest returns the content digest of the plain .mdt file r reads:
// from the cache when the file's identity was recorded under r's shape,
// else by hashing the same descriptor the identity was read from. A
// hash it records carries the file's sketch, computed on the way.
func (c *digestCache) digest(r *Ref) (string, error) {
	f, err := os.Open(r.path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	id, known := identify(f)
	if known {
		if e := c.lookup(id, r.nAtoms, r.nFrames); e != nil {
			c.hits.Add(1)
			return e.digest, nil
		}
	}
	c.misses.Add(1)
	start := c.now()
	m, err := newMDTFileReader(f, r.path, r, true)
	if err != nil {
		return "", err
	}
	var sk *sketch
	if known && c.sketches(r.nFrames) {
		sk = newSketch(r.nFrames)
	}
	d, err := r.hashFrames(m, sk)
	if err != nil || !known {
		return d, err
	}
	if after, ok := identify(f); !ok || after != id || racy(id, start) {
		c.racy.Add(1)
		return d, nil
	}
	c.put(&digestEntry{id: id, nAtoms: r.nAtoms, nFrames: r.nFrames, digest: d, sketch: sk})
	return d, nil
}

// lookup returns the entry recorded for id, if it was recorded under
// shape nAtoms × nFrames (a ref built over an earlier header of a
// replaced file must reach the miss path, which refuses it), and marks
// it used.
func (c *digestCache) lookup(id fileIdentity, nAtoms, nFrames int) *digestEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byID[id]
	if !ok {
		return nil
	}
	e := el.Value.(*digestEntry)
	if e.nAtoms != nAtoms || e.nFrames != nFrames {
		return nil
	}
	c.lru.MoveToFront(el)
	return e
}

// sketchOf returns the sketch recorded for the file open on f, when
// f's identity was recorded under shape nAtoms × nFrames: the
// statistics of exactly the bytes f reads. Nil otherwise, and always
// off Linux.
func (c *digestCache) sketchOf(f *os.File, nAtoms, nFrames int) *sketch {
	id, ok := identify(f)
	if !ok {
		return nil
	}
	if e := c.lookup(id, nAtoms, nFrames); e != nil {
		return e.sketch
	}
	return nil
}

func (c *digestCache) put(e *digestEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byID[e.id]; ok {
		c.bytes -= el.Value.(*digestEntry).size()
		el.Value = e
		c.lru.MoveToFront(el)
	} else {
		c.byID[e.id] = c.lru.PushFront(e)
	}
	c.bytes += e.size()
	for c.lru.Len() > 1 && (c.lru.Len() > c.maxEntries || c.bytes > c.maxBytes) {
		old := c.lru.Remove(c.lru.Back()).(*digestEntry)
		delete(c.byID, old.id)
		c.bytes -= old.size()
	}
}

// DigestCacheStats counts the file-identity digest cache's traffic since
// the process started: Digest calls on plain .mdt files answered from
// the cache (Hits) and hashed (Misses), and, of the misses, digests not
// recorded because the file's times were too recent to trust or its
// stat moved while it was hashed (Racy). WindowStatsSketched and
// WindowStatsComputed count the frames of stream-backed windows whose
// centroid and radius of gyration were served from a recorded sketch
// and computed at decode.
type DigestCacheStats struct {
	Hits                int64 `json:"hits"`
	Misses              int64 `json:"misses"`
	Racy                int64 `json:"racy"`
	WindowStatsSketched int64 `json:"window_stats_sketched"`
	WindowStatsComputed int64 `json:"window_stats_computed"`
}

// FileDigestStats snapshots the process's digest cache counters.
func FileDigestStats() DigestCacheStats {
	c := fileDigests
	return DigestCacheStats{
		Hits: c.hits.Load(), Misses: c.misses.Load(), Racy: c.racy.Load(),
		WindowStatsSketched: windowStatsSketched.Load(),
		WindowStatsComputed: windowStatsComputed.Load(),
	}
}
