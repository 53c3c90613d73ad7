package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// priced is a matrix-tier test value that carries its own admission cost.
type priced struct {
	v    any
	cost int64
}

// newPriced returns a cost-bounded LRU tier — the matrix tier's shape.
func newPriced(budget int64) *Tier[priced] {
	return New(Config[priced]{Name: "matrix", Budget: budget, Cost: func(p priced) int64 { return p.cost }})
}

// pricedCodec round-trips string values, pricing every restore at cost.
func pricedCodec(cost int64) Codec[priced] {
	return Codec[priced]{
		Encode: func(p priced) ([]byte, error) { return []byte(p.v.(string)), nil },
		Decode: func(d []byte) (priced, error) { return priced{string(d), cost}, nil },
	}
}

// build returns a constant-value build func for Do.
func build(v any, cost int64) func() (priced, bool, error) {
	return func() (priced, bool, error) { return priced{v, cost}, true, nil }
}

// mustMatrixDo runs a plain build and fails the test on error.
func mustMatrixDo(t *testing.T, c *Tier[priced], key string, v any, cost int64) (any, bool) {
	t.Helper()
	got, hit, _, err := c.Do(context.Background(), key, nil, build(v, cost))
	if err != nil {
		t.Fatalf("Do(%q): %v", key, err)
	}
	return got.v, hit
}

func TestMatrixHitMiss(t *testing.T) {
	c := newPriced(100)
	if _, hit := mustMatrixDo(t, c, "a", 1, 10); hit {
		t.Fatal("first access was a hit")
	}
	if v, hit := mustMatrixDo(t, c, "a", 2, 10); !hit || v.(int) != 1 {
		t.Fatalf("second access: hit=%v v=%v, want stored 1", hit, v)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Builds != 1 || s.BuildsSkipped != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 build / 1 skipped", s)
	}
	if s.CostUsed != 10 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want cost 10 over 1 entry", s)
	}
}

// TestMatrixCostBoundedEviction: admission is charged by cost, not entry
// count — three 40-cost entries under a 100 budget keep only two, evicting
// the least recently used, and the accounting balances.
func TestMatrixCostBoundedEviction(t *testing.T) {
	c := newPriced(100)
	mustMatrixDo(t, c, "a", "A", 40)
	mustMatrixDo(t, c, "b", "B", 40)
	mustMatrixDo(t, c, "a", "", 40) // refresh a; b is now the cold end
	mustMatrixDo(t, c, "c", "C", 40)
	if _, hit := mustMatrixDo(t, c, "b", "B2", 40); hit {
		t.Fatal("LRU victim b survived cost pressure")
	}
	s := c.Stats()
	if s.Evictions != 2 { // c's insert evicted b; b's reinsert evicted a
		t.Fatalf("evictions = %d, want 2", s.Evictions)
	}
	if s.CostUsed > s.CostBudget {
		t.Fatalf("cost used %d exceeds budget %d", s.CostUsed, s.CostBudget)
	}
	if s.Entries != 2 || s.CostUsed != 80 {
		t.Fatalf("stats = %+v, want 2 entries costing 80", s)
	}
}

// TestMatrixRejectsOversize: a value costing more than the whole budget is
// returned but never stored — one huge profile must not flush the tier.
func TestMatrixRejectsOversize(t *testing.T) {
	c := newPriced(100)
	mustMatrixDo(t, c, "small", 1, 60)
	if v, hit := mustMatrixDo(t, c, "huge", 2, 101); hit || v.(int) != 2 {
		t.Fatalf("oversize build: hit=%v v=%v", hit, v)
	}
	if _, hit := mustMatrixDo(t, c, "huge", 3, 101); hit {
		t.Fatal("oversize entry was stored")
	}
	if _, hit := mustMatrixDo(t, c, "small", -1, 60); !hit {
		t.Fatal("oversize rejection disturbed the resident entry")
	}
	if s := c.Stats(); s.Rejected != 2 || s.Evictions != 0 {
		t.Fatalf("stats = %+v, want 2 rejections and no evictions", s)
	}
}

// TestMatrixDisabledStoresNothing: budget 0 turns storage off — the
// "precedence cache off" switch of the equivalence tests (single-flight
// coalescing is unaffected; TestMatrixSingleFlightCoalescing covers it).
func TestMatrixDisabledStoresNothing(t *testing.T) {
	c := newPriced(0)
	mustMatrixDo(t, c, "a", 1, 10)
	if _, hit := mustMatrixDo(t, c, "a", 2, 10); hit {
		t.Fatal("disabled cache produced a hit")
	}
	if s := c.Stats(); s.Entries != 0 || s.CostUsed != 0 || s.Rejected != 0 {
		t.Fatalf("stats = %+v, want no storage and no rejection counting when disabled", s)
	}
}

func TestMatrixBuildErrorNotStored(t *testing.T) {
	c := newPriced(100)
	boom := errors.New("boom")
	if _, _, _, err := c.Do(context.Background(), "a", nil, func() (priced, bool, error) { return priced{}, true, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, hit := mustMatrixDo(t, c, "a", 1, 10); hit {
		t.Fatal("failed build was stored")
	}
	if s := c.Stats(); s.Builds != 1 {
		t.Fatalf("builds = %d, want 1 (the successful retry only)", s.Builds)
	}
}

// TestMatrixSingleFlightCoalescing is the concurrency contract, meaningful
// under -race: many concurrent builds of one profile run the builder once,
// everyone gets the leader's value, and the counters add up.
func TestMatrixSingleFlightCoalescing(t *testing.T) {
	const callers = 32
	c := newPriced(100)
	var builds atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	values := make([]any, callers)
	shareds := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, shared, err := c.Do(context.Background(), "profile", nil, func() (priced, bool, error) {
				builds.Add(1)
				<-gate
				return priced{"matrix", 10}, true, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			values[i], shareds[i] = v.v, shared
		}(i)
	}
	// Release the leader only once every follower joined its flight, so the
	// leader/coalesced accounting below is deterministic on any scheduler.
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Coalesced != callers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d callers coalesced within 10s", c.Stats().Coalesced, callers-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("builder ran %d times, want 1", n)
	}
	leaders := 0
	for i, v := range values {
		if v.(string) != "matrix" {
			t.Fatalf("caller %d got %v", i, v)
		}
		if !shareds[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d callers led the build, want exactly 1", leaders)
	}
	s := c.Stats()
	if s.Misses != callers || s.Coalesced != callers-1 || s.Builds != 1 || s.InFlight != 0 {
		t.Fatalf("stats = %+v, want %d misses / %d coalesced / 1 build", s, callers, callers-1)
	}
	if s.BuildsSkipped != callers-1 {
		t.Fatalf("builds skipped = %d, want %d", s.BuildsSkipped, callers-1)
	}
}

// TestMatrixStatsHitRate pins the derived ratio.
func TestMatrixStatsHitRate(t *testing.T) {
	c := newPriced(1000)
	for i := 0; i < 4; i++ {
		mustMatrixDo(t, c, fmt.Sprintf("k%d", i%2), i, 5)
	}
	if hr := c.Stats().HitRate(); hr != 0.5 {
		t.Fatalf("hit rate = %g, want 0.5", hr)
	}
	if hr := (Stats{}).HitRate(); hr != 0 {
		t.Fatalf("empty hit rate = %g, want 0", hr)
	}
}

// TestMatrixPut: externally produced values (the serving layer's
// incrementally patched matrices) are admitted like fresh builds — resident
// in memory, written through to an attached store, and served to a later Do
// without running its builder, in this process or the next.
func TestMatrixPut(t *testing.T) {
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
	c1.Put(context.Background(), testKey, priced{"patched", 10})
	if s := c1.Stats(); s.Entries != 1 || s.CostUsed != 10 || s.DiskPuts != 1 {
		t.Fatalf("stats after Put = %+v, want resident and written through", s)
	}
	if v, hit := mustMatrixDo(t, c1, testKey, "rebuilt", 10); !hit || v.(string) != "patched" {
		t.Fatalf("Do after Put = %v hit=%v, want the admitted value", v, hit)
	}

	// Restart: the Put entry restores from disk like any build.
	c2 := open()
	v, hit, _, err := c2.Do(context.Background(), testKey, nil, build("rebuilt", 10))
	if err != nil || !hit || v.v.(string) != "patched" {
		t.Fatalf("restart Do = %v hit=%v err=%v, want disk restore of the Put", v, hit, err)
	}
	if s := c2.Stats(); s.DiskHits != 1 || s.Builds != 0 {
		t.Fatalf("restart stats = %+v, want a disk hit and no build", s)
	}

	// Budget off: Put neither stores nor persists (matches Do's contract).
	c3 := newPriced(0)
	c3.Put(context.Background(), testKey, priced{"x", 10})
	if s := c3.Stats(); s.Entries != 0 || s.DiskPuts != 0 {
		t.Fatalf("disabled-cache Put stats = %+v, want nothing stored", s)
	}
}
