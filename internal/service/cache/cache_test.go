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

// newUnit returns an LRU tier charging one unit per entry — the result
// tier's shape — holding up to capacity values for at most ttl each.
func newUnit(capacity int, ttl time.Duration) *Tier[any] {
	return New(Config[any]{Name: "result", Budget: int64(capacity), TTL: ttl})
}

// compute returns a constant-value compute func for Do.
func compute(v any) func() (any, bool, error) {
	return func() (any, bool, error) { return v, true, nil }
}

func mustDo(t *testing.T, c *Tier[any], key string, v any) (any, bool) {
	t.Helper()
	got, hit, _, err := c.Do(context.Background(), key, compute(v))
	if err != nil {
		t.Fatalf("Do(%q): %v", key, err)
	}
	return got, hit
}

func TestHitMissCounters(t *testing.T) {
	c := newUnit(4, 0)
	if _, hit := mustDo(t, c, "a", 1); hit {
		t.Fatal("first access was a hit")
	}
	if v, hit := mustDo(t, c, "a", 2); !hit || v.(int) != 1 {
		t.Fatalf("second access: hit=%v v=%v, want cached 1", hit, v)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}
}

// TestEvictionCounterAccuracy inserts capacity+extra distinct keys and
// checks the eviction counter equals exactly the overflow, that entry count
// is pinned at capacity, and that the evicted keys are the least recently
// used ones.
func TestEvictionCounterAccuracy(t *testing.T) {
	const capacity, extra = 8, 13
	c := newUnit(capacity, 0)
	for i := 0; i < capacity+extra; i++ {
		mustDo(t, c, fmt.Sprintf("k%d", i), i)
	}
	s := c.Stats()
	if s.Evictions != extra {
		t.Fatalf("evictions = %d, want %d", s.Evictions, extra)
	}
	if s.Entries != capacity {
		t.Fatalf("entries = %d, want %d", s.Entries, capacity)
	}
	// The first `extra` keys left in LRU order; the rest are resident. Probe
	// residents first — probing an evicted key reinserts it and evicts a
	// resident, so order matters.
	for i := extra; i < capacity+extra; i++ {
		if _, hit := mustDo(t, c, fmt.Sprintf("k%d", i), -1); !hit {
			t.Fatalf("resident k%d missed", i)
		}
	}
	for i := 0; i < extra; i++ {
		if _, hit := mustDo(t, c, fmt.Sprintf("k%d", i), -1); hit {
			t.Fatalf("evicted k%d hit", i)
		}
	}
	// Reinserting the `extra` evicted keys displaced exactly `extra` more
	// residents: the counter must track every one.
	if s = c.Stats(); s.Evictions != 2*extra {
		t.Fatalf("evictions after reprobe = %d, want %d", s.Evictions, 2*extra)
	}
}

func TestLRURefreshOnHit(t *testing.T) {
	c := newUnit(2, 0)
	mustDo(t, c, "a", 1)
	mustDo(t, c, "b", 2)
	mustDo(t, c, "a", 0) // refresh a; b is now LRU
	mustDo(t, c, "c", 3) // evicts b
	if _, hit := mustDo(t, c, "a", -1); !hit {
		t.Fatal("refreshed entry was evicted")
	}
	if _, hit := mustDo(t, c, "b", -1); hit {
		t.Fatal("LRU entry survived eviction")
	}
}

func TestTTLExpiry(t *testing.T) {
	c := newUnit(4, time.Minute)
	now := time.Unix(1000, 0)
	c.SetClock(func() time.Time { return now })
	mustDo(t, c, "a", 1)
	now = now.Add(30 * time.Second)
	if _, hit := mustDo(t, c, "a", -1); !hit {
		t.Fatal("entry expired before its TTL")
	}
	now = now.Add(90 * time.Second) // 30s + 90s past the refreshless store... the hit did not refresh storedAt
	if _, hit := mustDo(t, c, "a", 2); hit {
		t.Fatal("entry survived past its TTL")
	}
	if s := c.Stats(); s.Expirations != 1 {
		t.Fatalf("expirations = %d, want 1", s.Expirations)
	}
}

func TestZeroCapacityStoresNothing(t *testing.T) {
	c := newUnit(0, 0)
	mustDo(t, c, "a", 1)
	if _, hit := mustDo(t, c, "a", 2); hit {
		t.Fatal("zero-capacity cache produced a hit")
	}
	if s := c.Stats(); s.Entries != 0 || s.Evictions != 0 {
		t.Fatalf("stats = %+v, want empty", s)
	}
}

func TestUncacheableNotStored(t *testing.T) {
	c := newUnit(4, 0)
	if _, _, _, err := c.Do(context.Background(), "a", func() (any, bool, error) { return 1, false, nil }); err != nil {
		t.Fatal(err)
	}
	if _, hit := mustDo(t, c, "a", 2); hit {
		t.Fatal("uncacheable result was stored")
	}
}

func TestErrorNotStored(t *testing.T) {
	c := newUnit(4, 0)
	boom := errors.New("boom")
	if _, _, _, err := c.Do(context.Background(), "a", func() (any, bool, error) { return nil, true, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, hit := mustDo(t, c, "a", 2); hit {
		t.Fatal("failed computation was stored")
	}
}

// TestSingleFlightCoalescing launches many concurrent identical requests and
// checks exactly one computation ran, everyone got its value, and the
// counters add up. Run under -race this also exercises the flight
// synchronisation.
func TestSingleFlightCoalescing(t *testing.T) {
	const callers = 32
	c := newUnit(4, 0)
	var computes atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	values := make([]any, callers)
	shareds := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, shared, err := c.Do(context.Background(), "key", func() (any, bool, error) {
				computes.Add(1)
				<-gate // hold the flight open until all callers joined or are blocked
				return "result", true, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			values[i], shareds[i] = v, shared
		}(i)
	}
	// Release the leader only after every other caller has joined its
	// flight — the leader is parked on the gate, so nobody can finish
	// early, and Coalesced must climb to callers-1. This makes the
	// leader/miss assertions below deterministic on any scheduler.
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Coalesced != callers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d callers coalesced within 10s", c.Stats().Coalesced, callers-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("computation ran %d times, want 1", n)
	}
	leaderCount := 0
	for i, v := range values {
		if v.(string) != "result" {
			t.Fatalf("caller %d got %v", i, v)
		}
		if !shareds[i] {
			leaderCount++
		}
	}
	if leaderCount != 1 {
		t.Fatalf("%d callers thought they led the flight, want 1", leaderCount)
	}
	s := c.Stats()
	if s.Misses != callers || s.Coalesced != callers-1 || s.InFlight != 0 {
		t.Fatalf("stats = %+v, want %d misses, %d coalesced, 0 in flight", s, callers, callers-1)
	}
}

// TestCoalescedFollowerHonoursContext: a follower whose context dies while
// the leader is still computing returns promptly with the context error and
// leaks nothing; the leader's result is unaffected.
func TestCoalescedFollowerHonoursContext(t *testing.T) {
	c := newUnit(4, 0)
	gate := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		v, _, _, err := c.Do(context.Background(), "key", func() (any, bool, error) {
			<-gate
			return 42, true, nil
		})
		if err != nil || v.(int) != 42 {
			t.Errorf("leader: v=%v err=%v", v, err)
		}
	}()
	// Wait until the flight is registered.
	for c.Stats().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, shared, err := c.Do(ctx, "key", compute(0))
	if !errors.Is(err, context.Canceled) || !shared {
		t.Fatalf("follower: shared=%v err=%v, want coalesced context.Canceled", shared, err)
	}
	close(gate)
	<-leaderDone
	if _, hit := mustDo(t, c, "key", -1); !hit {
		t.Fatal("leader result was not stored after follower abandoned")
	}
}
