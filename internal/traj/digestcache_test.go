package traj

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The file-identity digest cache, case by case: each change to a file
// must be re-hashed, and only an unchanged inode reached again may be
// served from the cache.

// cacheDelta is the digest cache's traffic since before.
func cacheDelta(before DigestCacheStats) DigestCacheStats {
	now := FileDigestStats()
	return DigestCacheStats{Hits: now.Hits - before.Hits, Misses: now.Misses - before.Misses, Racy: now.Racy - before.Racy}
}

// fileDigest digests path through a fresh FileRef, as admission does.
func fileDigest(t *testing.T, path string) (string, error) {
	t.Helper()
	r, err := FileRef(path)
	if err != nil {
		t.Fatal(err)
	}
	return r.Digest()
}

// contentDigestOf is the digest of the trajectory path holds, taken in
// memory, past the cache.
func contentDigestOf(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := DecodeMDT(b)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := MemRef(tr).Digest()
	return d
}

func writeTraj(t *testing.T, path string, seed int) {
	t.Helper()
	tr := streamTestTraj(5, 9)
	for i := range tr.NFrames() {
		tr.FrameCoords(i)[0][0] += float64(seed)
	}
	if err := WriteMDTFile(path, tr, 4); err != nil {
		t.Fatal(err)
	}
}

// identityOf is path's file identity, and whether this platform gives
// files one.
func identityOf(t *testing.T, path string) (fileIdentity, bool) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return identify(f)
}

// settle makes path's next digest through c recordable at once, with
// no wait on the racy window: path's mtime goes an hour back, so any
// later write to it moves the mtime its identity was recorded with, and
// c's clock runs an hour ahead of the wall clock for the rest of the
// test, so the ctime that Chtimes just stamped is long past the window.
// It skips the test where files have no identity.
func settle(t *testing.T, c *digestCache, path string) {
	t.Helper()
	if _, ok := identityOf(t, path); !ok {
		t.Skip("no file identity on this platform: every digest hashes")
	}
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, past, past); err != nil {
		t.Fatal(err)
	}
	ahead := func() time.Time { return time.Now().Add(time.Hour) }
	prev := c.clock.Swap(&ahead)
	t.Cleanup(func() { c.clock.Store(prev) })
}

// ctimeTicked returns once the clock that stamps file times has moved
// past path's ctime, so that any change made to path from then on
// stamps a ctime its recorded identity does not have. It waits on that
// condition, one timestamp tick at most, by stamping a probe file
// beside path until the probe's ctime is later.
func ctimeTicked(t *testing.T, path string) {
	t.Helper()
	was, _ := identityOf(t, path)
	probe := path + ".tick"
	for deadline := time.Now().Add(10 * time.Second); ; {
		if err := os.WriteFile(probe, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if now, _ := identityOf(t, probe); now.ctimeNs > was.ctimeNs {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: file times never moved past its ctime", path)
		}
	}
}

// recorded writes a trajectory to path, lets it settle and digests it
// once, so that the cache holds its identity.
func recorded(t *testing.T, path string) string {
	t.Helper()
	writeTraj(t, path, 0)
	settle(t, fileDigests, path)
	before := FileDigestStats()
	d, err := fileDigest(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if got := cacheDelta(before); got != (DigestCacheStats{Misses: 1}) {
		t.Fatalf("settled file not recorded: %+v", got)
	}
	return d
}

// wantRehash digests path again and requires a miss that returns its
// current content's digest (wantErr nil) or fails with wantErr.
func wantRehash(t *testing.T, path string, wantErr error) {
	t.Helper()
	before := FileDigestStats()
	d, err := fileDigest(t, path)
	if got := cacheDelta(before); got.Hits != 0 || got.Misses != 1 {
		t.Fatalf("changed file served from the cache: %+v", got)
	}
	if wantErr != nil {
		if !errors.Is(err, wantErr) {
			t.Fatalf("digest of the changed file: %v, want %v", err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if want := contentDigestOf(t, path); d != want {
		t.Fatalf("digest %s, content %s", d, want)
	}
}

func TestDigestCacheHardLinksShareOneEntry(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.mdt"), filepath.Join(dir, "b.mdt")
	writeTraj(t, a, 0)
	if err := os.Link(a, b); err != nil {
		t.Skip(err)
	}
	settle(t, fileDigests, a) // after the link, which moved ctime
	before := FileDigestStats()
	da, err := fileDigest(t, a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := fileDigest(t, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := contentDigestOf(t, a); da != want || db != want {
		t.Fatalf("digests %s, %s; content %s", da, db, want)
	}
	if got := cacheDelta(before); got != (DigestCacheStats{Hits: 1, Misses: 1}) {
		t.Fatalf("two links to one inode: %+v, want one hash and one hit", got)
	}
}

// TestDigestCacheRacyRewrite rewrites a file in place, same size,
// straight after its first digest: within one timestamp tick, so mtime
// and ctime may not move. The racy rule must not have recorded the
// first digest. The cache's clock stands at the file's mtime, so the
// digest starts inside the racy window however long writing took.
func TestDigestCacheRacyRewrite(t *testing.T) {
	dir := t.TempDir()
	path, other := filepath.Join(dir, "a.mdt"), filepath.Join(dir, "b.mdt")
	writeTraj(t, path, 0)
	writeTraj(t, other, 1)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(SetDigestClock(st.ModTime))
	before := FileDigestStats()
	if _, err := fileDigest(t, path); err != nil {
		t.Fatal(err)
	}
	wantRacy := DigestCacheStats{Misses: 1, Racy: 1}
	if _, ok := identityOf(t, path); !ok {
		wantRacy.Racy = 0 // no identity: hashed, never recorded
	}
	if got := cacheDelta(before); got != wantRacy {
		t.Fatalf("digest of a file written within the racy window: %+v, want %+v", got, wantRacy)
	}
	b, err := os.ReadFile(other)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(b, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wantRehash(t, path, nil)
	if got := cacheDelta(before); got.Hits != 0 {
		t.Fatalf("%+v", got)
	}
}

func TestDigestCacheRenameOver(t *testing.T) {
	dir := t.TempDir()
	path, next := filepath.Join(dir, "a.mdt"), filepath.Join(dir, "next.mdt")
	recorded(t, path)
	writeTraj(t, next, 1)
	settle(t, fileDigests, next)
	if err := os.Rename(next, path); err != nil {
		t.Fatal(err)
	}
	wantRehash(t, path, nil) // a new inode
}

func TestDigestCacheTruncateExtend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.mdt")
	recorded(t, path)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()); err != nil {
		t.Fatal(err)
	}
	wantRehash(t, path, ErrChecksum) // the tail now reads as zeros
}

// TestDigestCacheBitFlipMtimeRestored flips a payload bit and puts the
// mtime back: only ctime, which userspace cannot restore, tells the
// cache the file changed. This is the case that fails if ctime leaves
// the key.
func TestDigestCacheBitFlipMtimeRestored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.mdt")
	d := recorded(t, path)
	before := FileDigestStats()
	if again, err := fileDigest(t, path); err != nil || again != d {
		t.Fatalf("unchanged file: %s, %v; recorded %s", again, err, d)
	}
	if got := cacheDelta(before); got != (DigestCacheStats{Hits: 1}) {
		t.Fatalf("unchanged file not served from the cache: %+v", got)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	ctimeTicked(t, path)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := NewMDTReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	off := int64(mr.headerLen) + 8 // the first frame's first component
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 1
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, time.Time{}, st.ModTime()); err != nil {
		t.Fatal(err)
	}
	if now, err := os.Stat(path); err != nil || !now.ModTime().Equal(st.ModTime()) || now.Size() != st.Size() {
		t.Fatalf("mtime or size not restored: %v", err)
	}
	wantRehash(t, path, ErrChecksum)
}

// TestRacyRule pins which times the cache trusts against the moment
// hashing started.
func TestRacyRule(t *testing.T) {
	start := time.Unix(1_700_000_000, 500_000_000)
	ns := func(d time.Duration) int64 { return start.Add(d).UnixNano() }
	for _, c := range []struct {
		mtime, ctime time.Duration // relative to start
		racy         bool
	}{
		{-time.Second, -time.Second, false},
		{-fineTimestamps - time.Nanosecond, -fineTimestamps - time.Nanosecond, false},
		{-fineTimestamps, -time.Second, true},
		{-time.Second, -time.Millisecond, true}, // ctime recent: the mtime was put back
		{time.Second, time.Second, true},        // stamped after start
		{-1500 * time.Millisecond, -time.Second, false},
		{-1500 * time.Millisecond, -1500 * time.Millisecond, true}, // whole seconds: coarse stamps
		{-2500 * time.Millisecond, -2500 * time.Millisecond, false},
	} {
		id := fileIdentity{mtimeNs: ns(c.mtime), ctimeNs: ns(c.ctime)}
		if got := racy(id, start); got != c.racy {
			t.Errorf("mtime %v ctime %v from start: racy %v, want %v", c.mtime, c.ctime, got, c.racy)
		}
	}
}

// TestDigestCacheBound pins both bounds: the entry count (least
// recently used first out) and the byte budget, under which a sketch
// too large to record leaves its digest recorded without it.
func TestDigestCacheBound(t *testing.T) {
	c := newDigestCache(2, 1<<20)
	for i := range 3 {
		c.put(&digestEntry{id: fileIdentity{ino: uint64(i)}, nAtoms: 1, nFrames: 1, digest: fmt.Sprint(i)})
		if i == 1 {
			c.lookup(fileIdentity{ino: 0}, 1, 1) // 0 is now the most recent: 1 goes next
		}
	}
	for i, want := range []bool{true, false, true} {
		if e := c.lookup(fileIdentity{ino: uint64(i)}, 1, 1); (e != nil) != want {
			t.Errorf("entry %d cached %v, want %v", i, e != nil, want)
		}
	}
	if e := c.lookup(fileIdentity{ino: 0}, 2, 1); e != nil {
		t.Error("entry served to a ref of another shape")
	}

	// A budget of eight entries of 28 sketched frames: a 29-frame
	// sketch is over an eighth of it, so the digest keeps no sketch.
	budget := int64(8 * (digestEntryBytes + 28*sketchFrameBytes))
	c = newDigestCache(100, budget)
	if !c.sketches(28) || c.sketches(29) {
		t.Fatalf("sketches(28) = %v, sketches(29) = %v; want true, false", c.sketches(28), c.sketches(29))
	}
	dir := t.TempDir()
	for i, nFrames := range []int{28, 29} {
		path := filepath.Join(dir, fmt.Sprintf("%d.mdt", i))
		if err := WriteMDTFile(path, streamTestTraj(2, nFrames), 8); err != nil {
			t.Fatal(err)
		}
		settle(t, c, path)
		r, err := FileRef(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.digest(r); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		id, _ := identify(f)
		sk := c.sketchOf(f, 2, nFrames)
		f.Close()
		if e := c.lookup(id, 2, nFrames); e == nil {
			t.Fatalf("%d frames: digest not recorded", nFrames)
		}
		if (sk != nil) != (nFrames == 28) {
			t.Errorf("%d frames: sketch recorded %v, want %v", nFrames, sk != nil, nFrames == 28)
		}
	}
	// Sketched entries past the budget evict the least recently used;
	// the bytes accounted stay within it and match what is held.
	for i := range 20 {
		c.put(&digestEntry{id: fileIdentity{ino: uint64(100 + i)}, nAtoms: 2, nFrames: 28, digest: fmt.Sprint(i), sketch: newSketch(28)})
		var held int64
		for el := c.lru.Front(); el != nil; el = el.Next() {
			held += el.Value.(*digestEntry).size()
		}
		if c.bytes != held || c.bytes > budget {
			t.Fatalf("after %d puts: %d bytes accounted, %d held, budget %d", i+1, c.bytes, held, budget)
		}
	}
	if c.lru.Len() != 8 || c.lookup(fileIdentity{ino: 119}, 2, 28) == nil || c.lookup(fileIdentity{ino: 111}, 2, 28) != nil {
		t.Fatalf("%d entries held, want the 8 most recent", c.lru.Len())
	}
}
