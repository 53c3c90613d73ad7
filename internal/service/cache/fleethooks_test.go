package cache

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The fleet hook contract on the result tier: a peer hit is admitted like a
// restore (hit=true, no compute), a miss or error degrades to compute, and
// a hook that never asked counts nothing.
func TestCacheDoFetchOutcomes(t *testing.T) {
	ctx := context.Background()
	computes := 0
	compute := func() (any, bool, error) { computes++; return "computed", true, nil }

	c := newUnit(8)
	v, hit, _, err := c.Do(ctx, "aa01", func(context.Context) (any, bool, error) {
		return "from-peer", true, nil
	}, compute)
	if err != nil || !hit || v != "from-peer" || computes != 0 {
		t.Fatalf("peer hit: v=%v hit=%v computes=%d err=%v", v, hit, computes, err)
	}
	// The fetched entry is now resident: a plain Do must hit memory.
	if v, hit, _, _ := c.Do(ctx, "aa01", nil, compute); !hit || v != "from-peer" {
		t.Fatalf("fetched entry not admitted: v=%v hit=%v", v, hit)
	}

	if v, hit, _, err := c.Do(ctx, "aa02", func(context.Context) (any, bool, error) {
		return nil, false, nil // authoritative peer miss
	}, compute); err != nil || hit || v != "computed" {
		t.Fatalf("peer miss should compute: v=%v hit=%v err=%v", v, hit, err)
	}
	if v, _, _, err := c.Do(ctx, "aa03", func(context.Context) (any, bool, error) {
		return nil, false, errors.New("peer down")
	}, compute); err != nil || v != "computed" {
		t.Fatalf("peer error should compute: v=%v err=%v", v, err)
	}
	if _, _, _, err := c.Do(ctx, "aa04", func(context.Context) (any, bool, error) {
		return nil, false, ErrNotAsked // no live peer: never asked
	}, compute); err != nil {
		t.Fatal(err)
	}

	s := c.Stats()
	if s.PeerHits != 1 || s.PeerMisses != 1 || s.PeerErrors != 1 {
		t.Fatalf("peer counters = %d/%d/%d, want 1/1/1", s.PeerHits, s.PeerMisses, s.PeerErrors)
	}
	if computes != 3 {
		t.Fatalf("computes = %d, want 3 (miss, error, not-asked)", computes)
	}
}

func TestMatrixDoFetchOutcomes(t *testing.T) {
	ctx := context.Background()
	builds := 0
	build := func() (priced, bool, error) { builds++; return priced{"built", 1}, true, nil }

	c := newPriced(100)
	v, hit, _, err := c.Do(ctx, "bb01", func(context.Context) (priced, bool, error) {
		return priced{"peer-matrix", 2}, true, nil
	}, build)
	if err != nil || !hit || v.v != "peer-matrix" || builds != 0 {
		t.Fatalf("peer hit: v=%v hit=%v builds=%d err=%v", v, hit, builds, err)
	}
	if v, hit, _, _ := c.Do(ctx, "bb01", nil, build); !hit || v.v != "peer-matrix" {
		t.Fatalf("fetched matrix not admitted: v=%v hit=%v", v, hit)
	}
	if _, _, _, err := c.Do(ctx, "bb02", func(context.Context) (priced, bool, error) {
		return priced{}, false, nil
	}, build); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Do(ctx, "bb03", func(context.Context) (priced, bool, error) {
		return priced{}, false, errors.New("peer down")
	}, build); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.PeerHits != 1 || s.PeerMisses != 1 || s.PeerErrors != 1 {
		t.Fatalf("peer counters = %d/%d/%d, want 1/1/1", s.PeerHits, s.PeerMisses, s.PeerErrors)
	}
	if builds != 2 || s.Builds != 2 {
		t.Fatalf("builds = %d/%d, want 2 (peer hits must not count as builds)", builds, s.Builds)
	}
	// BuildsSkipped counts the peer hit alongside memory/disk hits.
	if skipped := c.Counters().BuildsSkipped(); skipped != 2 {
		t.Fatalf("BuildsSkipped = %d, want 2 (one memory hit + one peer hit)", skipped)
	}
}

// Peek is the owner-side serving read: it must return resident and
// persisted entries without moving the tier's own hit/miss/disk counters,
// because a peer's traffic is not this node's traffic.
func TestPeekDoesNotCountTraffic(t *testing.T) {
	ctx := context.Background()
	c := newUnit(8)
	store, err := OpenFileStore(t.TempDir(), "v1@engine-1/results")
	if err != nil {
		t.Fatal(err)
	}
	c.AttachStore(store, stringCodec())

	if _, ok := c.Peek(ctx, "cc01"); ok {
		t.Fatal("Peek hit on an empty cache")
	}
	c.Put(ctx, "cc01", "value")
	if v, ok := c.Peek(ctx, "cc01"); !ok || v != "value" {
		t.Fatalf("Peek after Put = (%v, %v)", v, ok)
	}

	// Evict the memory copy by building a fresh cache over the same store:
	// Peek must restore from disk.
	c2 := newUnit(8)
	c2.AttachStore(store, stringCodec())
	if v, ok := c2.Peek(ctx, "cc01"); !ok || v != "value" {
		t.Fatalf("Peek disk restore = (%v, %v)", v, ok)
	}
	s := c2.Stats()
	if s.Hits != 0 || s.Misses != 0 || s.DiskHits != 0 {
		t.Fatalf("Peek moved traffic counters: %+v", s)
	}

	// Matrix tier mirrors the contract.
	m := newPriced(100)
	mstore, err := OpenFileStore(t.TempDir(), "v1@engine-1/matrices")
	if err != nil {
		t.Fatal(err)
	}
	m.AttachStore(mstore, pricedCodec(1))
	if _, ok := m.Peek(ctx, "cc02"); ok {
		t.Fatal("matrix Peek hit on an empty cache")
	}
	m.Put(ctx, "cc02", priced{"matrix", 1})
	if v, ok := m.Peek(ctx, "cc02"); !ok || v.v != "matrix" {
		t.Fatalf("matrix Peek = (%v, %v)", v, ok)
	}
	if ms := m.Stats(); ms.Hits != 0 || ms.Misses != 0 || ms.DiskHits != 0 {
		t.Fatalf("matrix Peek moved traffic counters: %+v", ms)
	}
}

func TestKeysEnumerateResidents(t *testing.T) {
	ctx := context.Background()
	c := newUnit(8)
	c.Put(ctx, "dd01", "a")
	c.Put(ctx, "dd02", "b")
	if keys := c.Keys(); len(keys) != 2 {
		t.Fatalf("Keys = %v, want 2 entries", keys)
	}
	m := newPriced(100)
	m.Put(ctx, "dd03", priced{"m", 1})
	if keys := m.Keys(); len(keys) != 1 || keys[0] != "dd03" {
		t.Fatalf("matrix Keys = %v", keys)
	}
}

// The disk budget evicts oldest-read-first and self-heals its accounting
// from the walk, and a budgeted Get bumps recency.
func TestDiskBudgetEvictsOldest(t *testing.T) {
	root := t.TempDir()
	s, err := OpenFileStore(root, "v1@engine-1/results")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1024)
	entrySize := int64(fileHeaderLen + len(payload))
	b := NewDiskBudget(root, 8*entrySize)
	s.SetBudget(b)

	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("ee%02d", i)
		if err := s.Put(keys[i], payload); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so the LRU order is unambiguous even on coarse
		// filesystem timestamp granularity.
		mt := time.Now().Add(time.Duration(i-len(keys)) * time.Hour)
		p, _ := s.path(keys[i])
		os.Chtimes(p, mt, mt)
	}
	if used := b.Used(); used > 8*entrySize {
		t.Fatalf("budget not enforced: used=%d limit=%d", used, 8*entrySize)
	}
	if b.Evictions().Value() == 0 {
		t.Fatal("no evictions recorded despite overflow")
	}
	// The newest entries must have survived; the oldest must be gone.
	if _, ok, _ := s.Get(keys[len(keys)-1]); !ok {
		t.Fatal("newest entry was evicted")
	}
	if _, ok, _ := s.Get(keys[0]); ok {
		t.Fatal("oldest entry survived eviction")
	}
}

// A budget shared by two stores under one root accounts and evicts across
// both namespaces.
func TestDiskBudgetSharedAcrossStores(t *testing.T) {
	root := t.TempDir()
	rs, err := OpenFileStore(root, "v1@engine-1/results")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := OpenFileStore(root, "v1@engine-1/matrices")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 512)
	entrySize := int64(fileHeaderLen + len(payload))
	b := NewDiskBudget(root, 6*entrySize)
	rs.SetBudget(b)
	ms.SetBudget(b)
	for i := 0; i < 5; i++ {
		if err := rs.Put(fmt.Sprintf("ff%02d", i), payload); err != nil {
			t.Fatal(err)
		}
		if err := ms.Put(fmt.Sprintf("aa%02d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if used := b.Used(); used > 6*entrySize {
		t.Fatalf("shared budget not enforced: used=%d limit=%d", used, 6*entrySize)
	}
	if entryFiles(t, rs)+entryFiles(t, ms) >= 10 {
		t.Fatal("no entries evicted across the shared root")
	}
}

// A restart over a populated root must initialise the budget from the
// files actually present, not from zero.
func TestDiskBudgetInitFromDisk(t *testing.T) {
	root := t.TempDir()
	s, err := OpenFileStore(root, "v1@engine-1/results")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256)
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("ab%02d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	// A stale temp file from a crashed write is not an entry and is not
	// charged.
	dir := filepath.Dir(entryPath(t, s, "ab00"))
	if err := os.WriteFile(filepath.Join(dir, ".tmp-123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	b := NewDiskBudget(root, 1<<20)
	want := 4 * int64(fileHeaderLen+len(payload))
	if got := b.Used(); got != want {
		t.Fatalf("initial usage = %d, want %d", got, want)
	}
}
