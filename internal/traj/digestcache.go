package traj

import (
	"container/list"
	"os"
	"sync"
	"sync/atomic"
	"time"
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

// digestCacheEntries bounds the cache: an entry is ~150 bytes, so the
// bound holds it under a megabyte.
const digestCacheEntries = 4096

// fileDigests is the process's cache; every plain-.mdt FileRef digests
// through it.
var fileDigests = newDigestCache(digestCacheEntries)

// digestCache is a bounded LRU from file identity to content digest.
type digestCache struct {
	max int

	mu   sync.Mutex
	lru  *list.List // of *digestEntry, most recently used first
	byID map[fileIdentity]*list.Element

	hits, misses, racy atomic.Int64
}

type digestEntry struct {
	id              fileIdentity
	nAtoms, nFrames int
	digest          string
}

func newDigestCache(max int) *digestCache {
	return &digestCache{max: max, lru: list.New(), byID: make(map[fileIdentity]*list.Element)}
}

// digest returns the content digest of the plain .mdt file r reads:
// from the cache when the file's identity was recorded under r's shape,
// else by hashing the same descriptor the identity was read from.
func (c *digestCache) digest(r *Ref) (string, error) {
	f, err := os.Open(r.path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	id, known := identify(f)
	if known {
		if d, ok := c.get(id, r); ok {
			c.hits.Add(1)
			return d, nil
		}
	}
	c.misses.Add(1)
	start := time.Now()
	m, err := newMDTFileReader(f, r.path, r, true)
	if err != nil {
		return "", err
	}
	d, err := r.hashFrames(m)
	if err != nil || !known {
		return d, err
	}
	if after, ok := identify(f); !ok || after != id || racy(id, start) {
		c.racy.Add(1)
		return d, nil
	}
	c.put(&digestEntry{id: id, nAtoms: r.nAtoms, nFrames: r.nFrames, digest: d})
	return d, nil
}

// get returns the digest recorded for id, if it was recorded under r's
// shape (a ref built over an earlier header of a replaced file must
// reach the miss path, which refuses it).
func (c *digestCache) get(id fileIdentity, r *Ref) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byID[id]
	if !ok {
		return "", false
	}
	e := el.Value.(*digestEntry)
	if e.nAtoms != r.nAtoms || e.nFrames != r.nFrames {
		return "", false
	}
	c.lru.MoveToFront(el)
	return e.digest, true
}

func (c *digestCache) put(e *digestEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byID[e.id]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.byID[e.id] = c.lru.PushFront(e)
	for c.lru.Len() > c.max {
		old := c.lru.Remove(c.lru.Back()).(*digestEntry)
		delete(c.byID, old.id)
	}
}

// DigestCacheStats counts the file-identity digest cache's traffic since
// the process started: Digest calls on plain .mdt files answered from
// the cache (Hits) and hashed (Misses), and, of the misses, digests not
// recorded because the file's times were too recent to trust or its
// stat moved while it was hashed (Racy).
type DigestCacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Racy   int64 `json:"racy"`
}

// FileDigestStats snapshots the process's digest cache counters.
func FileDigestStats() DigestCacheStats {
	c := fileDigests
	return DigestCacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Racy: c.racy.Load()}
}
