package cache

import (
	"fmt"
	"math"
	"testing"
)

// policyTrace replays an access trace against a policy the way a unit-cost
// Tier drives it — Hit on resident keys; on absent ones Evict when the
// insertion would overflow capacity, then Add — and records, per access,
// whether it hit and what (if anything) was evicted. resident mirrors the
// Tier's items map.
type policyTrace struct {
	p        Policy
	capacity int
	resident map[string]bool
}

func newPolicyTrace(name string, capacity int, t *testing.T) *policyTrace {
	t.Helper()
	p, err := NewPolicy(name, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return &policyTrace{p: p, capacity: capacity, resident: map[string]bool{}}
}

// access touches one key and returns (hit, evicted).
func (tr *policyTrace) access(key string) (bool, string) {
	if tr.resident[key] {
		tr.p.Hit(key)
		return true, ""
	}
	evicted := ""
	if tr.p.Len() >= tr.capacity {
		evicted = tr.p.Evict(key)
		delete(tr.resident, evicted)
	}
	tr.p.Add(key)
	tr.resident[key] = true
	return false, evicted
}

// step is one recorded trace event: the key accessed, whether it must hit,
// and the eviction it must trigger ("" = none).
type step struct {
	key     string
	hit     bool
	evicted string
}

// runTrace replays steps and fails on the first divergence from the record.
func runTrace(t *testing.T, name string, capacity int, steps []step) {
	t.Helper()
	tr := newPolicyTrace(name, capacity, t)
	for i, s := range steps {
		hit, evicted := tr.access(s.key)
		if hit != s.hit || evicted != s.evicted {
			t.Fatalf("%s step %d (%q): got hit=%v evicted=%q, want hit=%v evicted=%q",
				name, i, s.key, hit, evicted, s.hit, s.evicted)
		}
		if tr.p.Len() != len(tr.resident) {
			t.Fatalf("%s step %d: policy.Len()=%d, resident=%d", name, i, tr.p.Len(), len(tr.resident))
		}
		if tr.p.Len() > capacity {
			t.Fatalf("%s step %d: %d residents exceed capacity %d", name, i, tr.p.Len(), capacity)
		}
	}
}

// TestLRUEvictionOrderTrace pins the LRU reference behaviour: the victim is
// always the least recently touched key, and a hit refreshes recency.
func TestLRUEvictionOrderTrace(t *testing.T) {
	runTrace(t, PolicyLRU, 2, []step{
		{"A", false, ""},
		{"B", false, ""},
		{"A", true, ""},   // refresh A; B is now LRU
		{"C", false, "B"}, /* LRU victim */
		{"A", true, ""},
		{"B", false, "C"}, // C never re-touched -> victim
		{"B", true, ""},
		{"D", false, "A"},
	})
}

// TestClockEvictionOrderTrace pins the clock (Compact-CAR-style) reference
// behaviour on a hand-derived trace at capacity 2: a referenced entry is
// promoted to the frequency ring instead of evicted, the unreferenced
// recency entry is the victim, and a ghost re-hit re-enters the frequency
// ring directly.
func TestClockEvictionOrderTrace(t *testing.T) {
	runTrace(t, PolicyClock, 2, []step{
		{"A", false, ""}, // t1=[A]
		{"B", false, ""}, // t1=[A B]
		{"A", true, ""},  // ref(A)=1
		// Full. Sweep: A has its bit set -> promoted to t2; B's bit is clear
		// -> evicted into ghost b1. C admitted to t1.
		{"C", false, "B"},
		// Full again. Sweep: C's bit clear -> evicted to b1. B is a b1 ghost
		// hit: it re-enters straight into the frequency ring t2.
		{"B", false, "C"},
		{"A", true, ""}, // A survived both evictions in t2
		{"B", true, ""},
	})
}

// TestClockScanResistance is the behavioural difference that motivates the
// policy: a hot working set with its reference bits set survives a one-shot
// scan of cold keys under clock, while pure LRU flushes it entirely.
func TestClockScanResistance(t *testing.T) {
	const capacity = 8
	hot := make([]string, capacity/2)
	for i := range hot {
		hot[i] = fmt.Sprintf("hot%d", i)
	}
	survivors := func(name string) int {
		tr := newPolicyTrace(name, capacity, t)
		for _, k := range hot {
			tr.access(k)
		}
		for _, k := range hot { // second round sets reference bits / refreshes
			if hit, _ := tr.access(k); !hit {
				t.Fatalf("%s: warm key %s missed", name, k)
			}
		}
		for i := 0; i < 4*capacity; i++ { // one-shot scan, no reuse
			tr.access(fmt.Sprintf("scan%d", i))
		}
		n := 0
		for _, k := range hot {
			if tr.resident[k] {
				n++
			}
		}
		return n
	}
	lru, clock := survivors(PolicyLRU), survivors(PolicyClock)
	if lru != 0 {
		t.Fatalf("LRU kept %d hot keys through a 4x-capacity scan; the reference trace expects 0", lru)
	}
	if clock != len(hot) {
		t.Fatalf("clock kept %d/%d hot keys through the scan, want all (they sit referenced in t2)", clock, len(hot))
	}
}

// TestClockZipfHitRateNotWorseThanLRU replays a deterministic Zipf-ish
// trace (splitmix64 popularity draws over a working set larger than the
// cache) at low skews and checks the clock policy's hit count is at least
// LRU's — the serving-layer claim BENCH_4 measures end to end. At exactly
// uniform popularity (skew 0) no replacement policy can beat another in
// expectation — the hit ratio is pinned at capacity/working-set — so there
// the assertion allows a sub-1% one-bit-recency approximation gap; from
// skew 0.25 up the frequency ring must win outright.
func TestClockZipfHitRateNotWorseThanLRU(t *testing.T) {
	const capacity, keys, accesses = 32, 128, 8192
	for _, skew := range []float64{0, 0.25, 0.5} {
		hitsFor := func(name string) int {
			tr := newPolicyTrace(name, capacity, t)
			state := uint64(0x9e3779b97f4a7c15)
			next := func() uint64 { // splitmix64: deterministic, seedable, no math/rand
				state += 0x9e3779b97f4a7c15
				z := state
				z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
				z = (z ^ (z >> 27)) * 0x94d049bb133111eb
				return z ^ (z >> 31)
			}
			// Inverse-CDF Zipf over the finite key space.
			cum := make([]float64, keys)
			total := 0.0
			for k := 0; k < keys; k++ {
				total += math.Pow(float64(k+1), -skew)
				cum[k] = total
			}
			hits := 0
			for i := 0; i < accesses; i++ {
				u := float64(next()>>11) / (1 << 53) * total
				lo, hi := 0, keys-1
				for lo < hi {
					mid := (lo + hi) / 2
					if cum[mid] >= u {
						hi = mid
					} else {
						lo = mid + 1
					}
				}
				if hit, _ := tr.access(fmt.Sprintf("k%d", lo)); hit {
					hits++
				}
			}
			return hits
		}
		lru, clock := hitsFor(PolicyLRU), hitsFor(PolicyClock)
		slack := 0
		if skew == 0 {
			slack = accesses / 100
		}
		if clock < lru-slack {
			t.Errorf("skew %.2f: clock hits %d < lru hits %d (allowed slack %d)", skew, clock, lru, slack)
		}
	}
}
