package cache

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// stringCodec round-trips string values byte-for-byte — the test stand-in
// for the serving layer's JSON / wire codecs.
func stringCodec() Codec[any] {
	return Codec[any]{
		Encode: func(v any) ([]byte, error) { return []byte(v.(string)), nil },
		Decode: func(d []byte) (any, error) { return string(d), nil },
	}
}

const testKey = "0123abcd" // hex-digest-shaped, file-store safe

func TestFileStoreRoundTrip(t *testing.T) {
	s, err := OpenFileStore(t.TempDir(), "v1@engine-1/results")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := s.Get(testKey); ok || err != nil {
		t.Fatalf("empty store Get: ok=%v err=%v", ok, err)
	}
	if err := s.Put(testKey, []byte("hello"), time.Time{}); err != nil {
		t.Fatal(err)
	}
	v, expiry, ok, err := s.Get(testKey)
	if err != nil || !ok || string(v) != "hello" || !expiry.IsZero() {
		t.Fatalf("Get = %q %v %v %v, want hello/zero-expiry hit", v, expiry, ok, err)
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	if err := s.Delete(testKey); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := s.Get(testKey); ok {
		t.Fatal("deleted entry still reads")
	}
	if err := s.Delete(testKey); err != nil {
		t.Fatalf("deleting an absent key: %v", err)
	}
}

func TestFileStoreTTLExpiry(t *testing.T) {
	s, err := OpenFileStore(t.TempDir(), "v1@engine-1/results")
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	s.SetClock(func() time.Time { return now })
	if err := s.Put(testKey, []byte("x"), now.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, expiry, ok, _ := s.Get(testKey); !ok || !expiry.Equal(now.Add(time.Minute)) {
		t.Fatalf("fresh entry: ok=%v expiry=%v", ok, expiry)
	}
	now = now.Add(2 * time.Minute)
	if _, _, ok, _ := s.Get(testKey); ok {
		t.Fatal("expired entry still reads")
	}
	// Expiry is self-healing: the dead file is gone, not just skipped.
	if n := s.Len(); n != 0 {
		t.Fatalf("expired entry still on disk, Len = %d", n)
	}
}

// entryPath returns the on-disk file the store keeps key in.
func entryPath(t *testing.T, s *FileStore, key string) string {
	t.Helper()
	p, err := s.path(key)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFileStoreTruncatedEntry: a torn write (crash mid-write on a
// non-atomic filesystem, or bit rot) reads as a miss, never an error, and
// the broken file is removed.
func TestFileStoreTruncatedEntry(t *testing.T) {
	s, err := OpenFileStore(t.TempDir(), "v1@engine-1/results")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey, []byte("payload-bytes"), time.Time{}); err != nil {
		t.Fatal(err)
	}
	p := entryPath(t, s, testKey)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 3, fileHeaderLen - 1, len(data) - 1} {
		if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, ok, err := s.Get(testKey); ok || err != nil {
			t.Fatalf("truncated to %d bytes: ok=%v err=%v, want clean miss", cut, ok, err)
		}
		if _, statErr := os.Stat(p); !errors.Is(statErr, os.ErrNotExist) {
			t.Fatalf("truncated entry (%d bytes) was not deleted", cut)
		}
		if err := s.Put(testKey, []byte("payload-bytes"), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileStoreCorruptPayload: a flipped payload bit fails the CRC and reads
// as a self-healing miss.
func TestFileStoreCorruptPayload(t *testing.T) {
	s, err := OpenFileStore(t.TempDir(), "v1@engine-1/results")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey, []byte("payload"), time.Time{}); err != nil {
		t.Fatal(err)
	}
	p := entryPath(t, s, testKey)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := s.Get(testKey); ok || err != nil {
		t.Fatalf("corrupt entry: ok=%v err=%v, want clean miss", ok, err)
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("corrupt entry survived, Len = %d", n)
	}
}

// TestFileStoreVersionBumpInvalidates: reopening the same root under a new
// first-segment version makes every old entry unreachable AND prunes the old
// tree from disk.
func TestFileStoreVersionBumpInvalidates(t *testing.T) {
	root := t.TempDir()
	s1, err := OpenFileStore(root, "v1@engine-1/results")
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(testKey, []byte("old"), time.Time{}); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFileStore(root, "v1@engine-2/results")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := s2.Get(testKey); ok {
		t.Fatal("entry survived an engine-version bump")
	}
	if _, err := os.Stat(filepath.Join(root, "v1@engine-1")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stale version tree was not pruned")
	}
}

// TestFileStoreSharedVersionTree: the two tiers of one server share a first
// segment ("<version>/results", "<version>/matrices"), so opening the second
// must not prune the first.
func TestFileStoreSharedVersionTree(t *testing.T) {
	root := t.TempDir()
	rs, err := OpenFileStore(root, "v1@engine-1/results")
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Put(testKey, []byte("result"), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(root, "v1@engine-1/matrices"); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := rs.Get(testKey); !ok {
		t.Fatal("opening the sibling tier pruned the results tier")
	}
}

func TestFileStoreScanSkipsTempAndCorrupt(t *testing.T) {
	s, err := OpenFileStore(t.TempDir(), "v1@engine-1/results")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey, []byte("live"), time.Time{}); err != nil {
		t.Fatal(err)
	}
	// A stale temp file from a crashed write and a garbage file must both be
	// invisible to Scan.
	dir := filepath.Dir(entryPath(t, s, testKey))
	if err := os.WriteFile(filepath.Join(dir, ".tmp-123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "feedbead"), []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	var keys []string
	err = s.Scan(func(key string, value []byte, _ time.Time) error {
		keys = append(keys, key+"="+string(value))
		return nil
	})
	if err != nil || len(keys) != 1 || keys[0] != testKey+"=live" {
		t.Fatalf("Scan = %v (%v), want exactly the live entry", keys, err)
	}
}

func TestFileStoreRejectsUnsafeKeys(t *testing.T) {
	s, err := OpenFileStore(t.TempDir(), "v1@engine-1/results")
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "../escape", "a/b", "a b"} {
		if err := s.Put(bad, []byte("x"), time.Time{}); err == nil {
			t.Fatalf("Put(%q) accepted an unsafe key", bad)
		}
	}
}

// TestCacheDiskWarmRestart is the tentpole's contract at the result tier: a
// second cache over the same directory serves a previously computed entry
// from disk — no recompute — and counts it as a disk hit.
func TestCacheDiskWarmRestart(t *testing.T) {
	root := t.TempDir()
	open := func() *Tier[any] {
		st, err := OpenFileStore(root, "v1@engine-1/results")
		if err != nil {
			t.Fatal(err)
		}
		c := newUnit(4, 0)
		c.AttachStore(st, stringCodec())
		return c
	}
	c1 := open()
	if _, hit := mustDo(t, c1, testKey, "computed"); hit {
		t.Fatal("first sight was a hit")
	}
	if s := c1.Stats(); s.DiskPuts != 1 || s.DiskErrors != 0 {
		t.Fatalf("stats after write-through = %+v, want 1 disk put", s)
	}

	c2 := open() // the "restarted process"
	recomputed := false
	v, hit, _, err := c2.Do(context.Background(), testKey, func() (any, bool, error) {
		recomputed = true
		return "recomputed", true, nil
	})
	if err != nil || recomputed || !hit || v.(string) != "computed" {
		t.Fatalf("restart Do = %v hit=%v recomputed=%v err=%v, want disk-warm hit", v, hit, recomputed, err)
	}
	s := c2.Stats()
	if s.DiskHits != 1 || s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("restart stats = %+v, want 1 disk hit under 1 memory miss", s)
	}
	// The restore was promoted into memory: the next access is a pure hit.
	if _, hit := mustDo(t, c2, testKey, "x"); !hit {
		t.Fatal("restored entry was not promoted to memory")
	}
	if s := c2.Stats(); s.DiskHits != 1 || s.Hits != 1 {
		t.Fatalf("post-promotion stats = %+v", s)
	}
}

// TestCacheDiskExpiryPreserved: a restored entry keeps its original absolute
// expiry — a restart cannot extend a result's life.
func TestCacheDiskExpiryPreserved(t *testing.T) {
	root := t.TempDir()
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	open := func() (*Tier[any], *FileStore) {
		st, err := OpenFileStore(root, "v1@engine-1/results")
		if err != nil {
			t.Fatal(err)
		}
		st.SetClock(clock)
		c := newUnit(4, time.Minute)
		c.SetClock(clock)
		c.AttachStore(st, stringCodec())
		return c, st
	}
	c1, _ := open()
	mustDo(t, c1, testKey, "v") // persisted with expiry now+60s

	now = now.Add(45 * time.Second)
	c2, _ := open()
	if _, hit := mustDo(t, c2, testKey, "x"); !hit {
		t.Fatal("entry should still be live 45s in")
	}
	// 30s later the ORIGINAL expiry (t+60s) has passed. If the restart had
	// restamped the TTL the entry would live until t+105s.
	now = now.Add(30 * time.Second)
	if _, hit := mustDo(t, c2, testKey, "fresh"); hit {
		t.Fatal("restored entry outlived its original expiry")
	}
}

// TestCacheDiskDecodeErrorRecovers: an entry the codec cannot decode counts
// a disk error, is deleted, and degrades to a recompute — never an outage.
func TestCacheDiskDecodeErrorRecovers(t *testing.T) {
	st, err := OpenFileStore(t.TempDir(), "v1@engine-1/results")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(testKey, []byte("legacy-garbage"), time.Time{}); err != nil {
		t.Fatal(err)
	}
	c := newUnit(4, 0)
	c.AttachStore(st, Codec[any]{
		Encode: func(v any) ([]byte, error) { return []byte(v.(string)), nil },
		Decode: func(d []byte) (any, error) { return nil, errors.New("schema mismatch") },
	})
	v, hit, _, err := c.Do(context.Background(), testKey, compute("recomputed"))
	if err != nil || hit || v.(string) != "recomputed" {
		t.Fatalf("Do over corrupt entry = %v hit=%v err=%v, want recompute", v, hit, err)
	}
	if s := c.Stats(); s.DiskErrors != 1 {
		t.Fatalf("stats = %+v, want 1 disk error", s)
	}
	if n := st.Len(); n != 1 { // the garbage was replaced by the write-through
		t.Fatalf("store Len = %d, want the recomputed entry only", n)
	}
}

// TestCacheFlushRepairsMissedWrites: Flush persists entries that entered
// memory without reaching disk (here: restored-then-mutated scenario stands
// in for a failed write-through), so shutdown leaves a complete snapshot.
func TestCacheFlush(t *testing.T) {
	root := t.TempDir()
	c := newUnit(4, 0)
	mustDo(t, c, testKey, "early") // stored in memory before any store exists
	st, err := OpenFileStore(root, "v1@engine-1/results")
	if err != nil {
		t.Fatal(err)
	}
	c.AttachStore(st, stringCodec())
	if n := c.Flush(); n != 1 {
		t.Fatalf("Flush = %d, want 1", n)
	}
	if v, _, ok, _ := st.Get(testKey); !ok || string(v) != "early" {
		t.Fatalf("flushed entry: %q ok=%v", v, ok)
	}
	if s := c.Stats(); s.DiskPuts != 1 {
		t.Fatalf("stats = %+v, want 1 disk put from Flush", s)
	}
}

// TestCachePanicSentinel (satellite fix): a panicking compute must resolve
// followers with the dedicated sentinel, not context.Canceled, and the panic
// still reaches the leader's caller.
func TestCachePanicSentinel(t *testing.T) {
	c := newUnit(4, 0)
	gate := make(chan struct{})
	followerJoined := make(chan struct{})
	leaderPanicked := make(chan any, 1)
	go func() {
		defer func() { leaderPanicked <- recover() }()
		c.Do(context.Background(), "key", func() (any, bool, error) {
			<-gate
			panic("compute exploded")
		})
	}()
	for c.Stats().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	go func() {
		close(followerJoined)
		_, _, shared, err := c.Do(context.Background(), "key", compute(0))
		if !shared || !errors.Is(err, errComputePanic) {
			t.Errorf("follower: shared=%v err=%v, want errComputePanic", shared, err)
		}
		if errors.Is(err, context.Canceled) {
			t.Error("follower saw context.Canceled for a compute panic")
		}
		leaderPanicked <- "follower done"
	}()
	<-followerJoined
	for c.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if p := <-leaderPanicked; p == "follower done" {
		// Order is unspecified; collect the other one too.
		p = <-leaderPanicked
		if p == nil || p.(string) != "compute exploded" {
			t.Fatalf("leader recover = %v, want the original panic", p)
		}
	} else {
		if p == nil || p.(string) != "compute exploded" {
			t.Fatalf("leader recover = %v, want the original panic", p)
		}
		<-leaderPanicked
	}
	// The key must be retryable (no wedged flight).
	if v, _, _, err := c.Do(context.Background(), "key", compute("retry")); err != nil || v.(string) != "retry" {
		t.Fatalf("retry after panic: %v %v", v, err)
	}
}

// TestSweepDrivenExpiry (satellite fix): expired entries that nobody
// re-requests are collected by Sweep — the reaper's entry point — and
// counted under Expirations.
func TestSweepDrivenExpiry(t *testing.T) {
	c := newUnit(8, time.Minute)
	now := time.Unix(1000, 0)
	c.SetClock(func() time.Time { return now })
	mustDo(t, c, "a", 1)
	mustDo(t, c, "b", 2)
	mustDo(t, c, "c", 3)
	now = now.Add(2 * time.Minute)
	if n := c.Sweep(); n != 3 {
		t.Fatalf("Sweep = %d, want 3", n)
	}
	s := c.Stats()
	if s.Expirations != 3 || s.Entries != 0 {
		t.Fatalf("stats = %+v, want 3 expirations and no entries", s)
	}
	if c.Sweep() != 0 {
		t.Fatal("second sweep found entries")
	}
}

// TestOpportunisticSweepOnInsert: inserting a new key sweeps TTL-dead
// entries in passing (no reaper, no re-request needed), so the dead entry's
// Policy slot is free before the insert is admitted.
func TestOpportunisticSweepOnInsert(t *testing.T) {
	c := newUnit(8, time.Minute)
	now := time.Unix(1000, 0)
	c.SetClock(func() time.Time { return now })
	mustDo(t, c, "a", 1)
	now = now.Add(2 * time.Minute)
	mustDo(t, c, "b", 2)
	s := c.Stats()
	if s.Expirations != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want the insert to have swept the dead entry", s)
	}
}

// TestMatrixFollowerHonoursContext (satellite fix): a matrix-tier follower
// whose context dies while the leader builds returns promptly with the
// context error; the leader's build is unaffected.
func TestMatrixFollowerHonoursContext(t *testing.T) {
	c := newPriced(100)
	gate := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		v, _, _, err := c.Do(context.Background(), "key", func() (priced, bool, error) {
			<-gate
			return priced{42, 10}, true, nil
		})
		if err != nil || v.v.(int) != 42 {
			t.Errorf("leader: v=%v err=%v", v, err)
		}
	}()
	for c.Stats().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, shared, err := c.Do(ctx, "key", build(0, 0))
	if !errors.Is(err, context.Canceled) || !shared {
		t.Fatalf("follower: shared=%v err=%v, want coalesced context.Canceled", shared, err)
	}
	close(gate)
	<-leaderDone
	if _, hit := mustMatrixDo(t, c, "key", -1, 10); !hit {
		t.Fatal("leader build was not stored after follower abandoned")
	}
}

// TestMatrixPanicSentinel: followers of a panicked matrix build see
// errComputePanic, and the key stays retryable.
func TestMatrixPanicSentinel(t *testing.T) {
	c := newPriced(100)
	gate := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Do(context.Background(), "key", func() (priced, bool, error) {
			<-gate
			panic("build exploded")
		})
	}()
	for c.Stats().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	followerErr := make(chan error, 1)
	go func() {
		_, _, _, err := c.Do(context.Background(), "key", build(0, 0))
		followerErr <- err
	}()
	for c.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if p := <-recovered; p == nil || p.(string) != "build exploded" {
		t.Fatalf("leader recover = %v", p)
	}
	if err := <-followerErr; !errors.Is(err, errComputePanic) {
		t.Fatalf("follower err = %v, want errComputePanic", err)
	}
	if v, hit := mustMatrixDo(t, c, "key", "retry", 10); hit || v.(string) != "retry" {
		t.Fatalf("retry after panic: %v hit=%v", v, hit)
	}
}

// TestMatrixDiskWarmRestart: the matrix tier's restart contract — a second
// cache over the same directory restores the persisted matrix instead of
// rebuilding, BuildsSkipped counts it, and the restore is promoted into
// memory at its priced cost.
func TestMatrixDiskWarmRestart(t *testing.T) {
	root := t.TempDir()
	open := func() *Tier[priced] {
		st, err := OpenFileStore(root, "v1@engine-1/matrices")
		if err != nil {
			t.Fatal(err)
		}
		c := newPriced(100)
		c.AttachStore(st, pricedCodec(10))
		return c
	}
	c1 := open()
	mustMatrixDo(t, c1, testKey, "matrix", 10)
	if s := c1.Stats(); s.DiskPuts != 1 || s.Builds != 1 {
		t.Fatalf("stats after build = %+v", s)
	}

	c2 := open()
	rebuilt := false
	v, hit, _, err := c2.Do(context.Background(), testKey, func() (priced, bool, error) {
		rebuilt = true
		return priced{"rebuilt", 10}, true, nil
	})
	if err != nil || rebuilt || !hit || v.v.(string) != "matrix" {
		t.Fatalf("restart Do = %v hit=%v rebuilt=%v err=%v, want disk-warm restore", v, hit, rebuilt, err)
	}
	s := c2.Stats()
	if s.DiskHits != 1 || s.Builds != 0 || s.BuildsSkipped != 1 || s.CostUsed != 10 {
		t.Fatalf("restart stats = %+v, want 1 disk hit / 0 builds / cost 10 admitted", s)
	}
	if _, hit := mustMatrixDo(t, c2, testKey, "x", 10); !hit {
		t.Fatal("restored matrix was not promoted to memory")
	}
}

// TestMatrixOversizePersists: a matrix too large for the memory budget is
// still written through — disk is not cell-bounded, and restoring it later
// still skips the rebuild.
func TestMatrixOversizePersists(t *testing.T) {
	st, err := OpenFileStore(t.TempDir(), "v1@engine-1/matrices")
	if err != nil {
		t.Fatal(err)
	}
	c := newPriced(100)
	c.AttachStore(st, pricedCodec(101))
	mustMatrixDo(t, c, testKey, "huge", 101)
	if s := c.Stats(); s.Rejected != 1 || s.DiskPuts != 1 {
		t.Fatalf("stats = %+v, want rejected in memory but persisted", s)
	}
	if v, _, ok, _ := st.Get(testKey); !ok || string(v) != "huge" {
		t.Fatalf("oversize entry not on disk: %q ok=%v", v, ok)
	}
}

// TestMatrixFlush mirrors TestCacheFlush at the matrix tier.
func TestMatrixFlush(t *testing.T) {
	c := newPriced(100)
	mustMatrixDo(t, c, testKey, "m", 10)
	st, err := OpenFileStore(t.TempDir(), "v1@engine-1/matrices")
	if err != nil {
		t.Fatal(err)
	}
	c.AttachStore(st, pricedCodec(10))
	if n := c.Flush(); n != 1 {
		t.Fatalf("Flush = %d, want 1", n)
	}
	if v, _, ok, _ := st.Get(testKey); !ok || string(v) != "m" {
		t.Fatalf("flushed matrix: %q ok=%v", v, ok)
	}
}

// TestFileStoreKeyFanout: entries land under a two-character prefix
// directory, so one flat directory never holds the whole tier.
func TestFileStoreKeyFanout(t *testing.T) {
	s, err := OpenFileStore(t.TempDir(), "v1@engine-1/results")
	if err != nil {
		t.Fatal(err)
	}
	p := entryPath(t, s, testKey)
	if got := filepath.Base(filepath.Dir(p)); got != testKey[:2] {
		t.Fatalf("entry parent dir = %q, want prefix %q", got, testKey[:2])
	}
	if !strings.HasSuffix(p, testKey) {
		t.Fatalf("entry path %q does not end in the key", p)
	}
}

// FuzzDecodeEntry fuzzes the FileStore frame, the on-disk trust boundary:
// decodeEntry must never panic, every frame it accepts must re-encode to
// exactly its input bytes (the frame has no slack a corrupt file could hide
// in), and encodeEntry → decodeEntry must round-trip any payload and expiry.
func FuzzDecodeEntry(f *testing.F) {
	f.Add(encodeEntry([]byte("payload"), time.Time{}), int64(0))
	f.Add(encodeEntry([]byte(`{"ranking":[2,0,1]}`), time.Unix(0, 1_700_000_000_000_000_000)), int64(-1))
	f.Add([]byte("MRC1"), int64(1))
	f.Fuzz(func(t *testing.T, data []byte, exp int64) {
		if value, expiry, ok := decodeEntry(data); ok {
			if again := encodeEntry(value, expiry); !bytes.Equal(again, data) {
				t.Fatalf("accepted frame re-encodes differently:\n in  %x\n out %x", data, again)
			}
		}
		var expiry time.Time
		if exp != 0 {
			expiry = time.Unix(0, exp)
		}
		value, gotExpiry, ok := decodeEntry(encodeEntry(data, expiry))
		if !ok || !bytes.Equal(value, data) || !gotExpiry.Equal(expiry) {
			t.Fatalf("round trip of %d-byte payload at %v: ok=%v expiry=%v", len(data), expiry, ok, gotExpiry)
		}
	})
}
