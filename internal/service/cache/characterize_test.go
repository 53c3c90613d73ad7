package cache

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"manirank/internal/obs"
)

// traceCounts is the counter slice the characterization trace pins.
type traceCounts struct {
	Hits, Misses, Coalesced, Evictions, Rejected, Builds uint64
}

// traceTier is the part of a cache tier's API the characterization trace
// drives; tracetier_test.go adapts each tier onto it. do looks key up and,
// on a miss, runs build for the value and its admission cost (unit-cost
// tiers ignore the cost).
type traceTier interface {
	do(ctx context.Context, key string, build func() (string, int64)) (value string, hit bool, err error)
	counts() traceCounts
	keys() []string
}

// zipfTrace returns accesses key indices in [0, keys), Zipf-skewed by skew,
// drawn from a splitmix64 stream seeded with seed — deterministic on any
// platform, independent of math/rand.
func zipfTrace(seed uint64, keys, accesses int, skew float64) []int {
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	cum := make([]float64, keys)
	total := 0.0
	for k := range cum {
		total += math.Pow(float64(k+1), -skew)
		cum[k] = total
	}
	out := make([]int, accesses)
	for i := range out {
		u := float64(next()>>11) / (1 << 53) * total
		out[i] = sort.SearchFloat64s(cum, u)
		if out[i] >= keys {
			out[i] = keys - 1
		}
	}
	return out
}

// traceCost prices key k for the matrix tier: mixed small costs, with every
// ninth key (from k=4) costing more than the whole characterization budget,
// so the trace exercises oversize rejection alongside eviction.
func traceCost(k int) int64 {
	if k%9 == 4 {
		return 75
	}
	return 3 + int64(k*5%11)
}

// replayTrace drives tier through the seeded Zipf trace, then one gated
// coalescing burst, checking every returned value on the way.
func replayTrace(t *testing.T, tier traceTier) {
	t.Helper()
	ctx := context.Background()
	for i, k := range zipfTrace(0x5eed, 48, 2000, 0.8) {
		key := fmt.Sprintf("k%02d", k)
		v, _, err := tier.do(ctx, key, func() (string, int64) { return "v:" + key, traceCost(k) })
		if err != nil || v != "v:"+key {
			t.Fatalf("access %d (%s): v=%q err=%v", i, key, v, err)
		}
	}

	// Burst: whichever caller leads parks in its build until the five
	// followers have joined its flight.
	const followers = 5
	base := tier.counts().Coalesced
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := tier.do(ctx, "burst", func() (string, int64) {
				<-gate
				return "v:burst", 7
			})
			if err != nil || v != "v:burst" {
				t.Errorf("burst: v=%q err=%v", v, err)
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for tier.counts().Coalesced != base+followers {
		if time.Now().After(deadline) {
			t.Fatalf("burst: %d of %d followers coalesced", tier.counts().Coalesced-base, followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
}

// TestTierCharacterization pins both cache tiers' observable behaviour on
// one seeded Zipf trace at sizes where every tier evicts: the counters and
// the final resident key set. The literals were recorded before the tiers
// were unified and must never be edited to follow a refactor — any change
// here is a behaviour change.
func TestTierCharacterization(t *testing.T) {
	cases := []struct {
		name     string
		tier     func(t *testing.T) traceTier
		want     traceCounts
		resident []string
	}{
		{
			name:     "result-lru",
			tier:     func(t *testing.T) traceTier { return newTraceResultTier(12) },
			want:     traceCounts{Hits: 920, Misses: 1086, Coalesced: 5, Evictions: 1069, Rejected: 0, Builds: 1081},
			resident: []string{"burst", "k00", "k01", "k02", "k11", "k20", "k23", "k27", "k32", "k36", "k42", "k45"},
		},
		{
			name:     "matrix",
			tier:     func(t *testing.T) traceTier { return newTraceMatrixTier(t, 60) },
			want:     traceCounts{Hits: 642, Misses: 1364, Coalesced: 5, Evictions: 1165, Rejected: 187, Builds: 1359},
			resident: []string{"burst", "k00", "k01", "k02", "k23", "k27", "k32"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tier := tc.tier(t)
			replayTrace(t, tier)
			got := tier.counts()
			keys := tier.keys()
			sort.Strings(keys)
			if got != tc.want {
				t.Errorf("counts = %#v\nwant     %#v", got, tc.want)
			}
			if !reflect.DeepEqual(keys, tc.resident) {
				t.Errorf("resident = %#v\nwant       %#v", keys, tc.resident)
			}
		})
	}
}

// TestResultTierMatchesChe checks the result tier against the Che
// approximation the serving layer exports next to its measured hit rate: on
// seeded Zipf traces across skews and cache/working-set ratios, the
// unit-cost tier's measured hit rate must sit within 0.015 of what
// obs.CheEstimator predicts for its capacity. The approximation models LRU;
// a tier that stopped refreshing recency on hits (FIFO) drifts well outside
// the band at every skew.
func TestResultTierMatchesChe(t *testing.T) {
	ctx := context.Background()
	for _, shape := range []struct{ keys, capacity, accesses int }{
		{480, 120, 20000},
		{200, 32, 8000},
		{1000, 100, 20000},
	} {
		for _, skew := range []float64{0.6, 0.8, 1.0, 1.2} {
			tier := New(Config[int]{Name: "result", Budget: int64(shape.capacity)})
			che := obs.NewCheEstimator()
			for _, k := range zipfTrace(0x5eed, shape.keys, shape.accesses, skew) {
				key := fmt.Sprintf("k%d", k)
				che.Observe(key)
				if _, _, _, err := tier.Do(ctx, key, nil, func() (int, bool, error) { return k, true, nil }); err != nil {
					t.Fatal(err)
				}
			}
			measured, predicted := tier.Stats().HitRate(), che.Predict(shape.capacity)
			if math.Abs(measured-predicted) > 0.015 {
				t.Errorf("keys=%d capacity=%d accesses=%d skew=%.1f: measured hit rate %.4f, Che predicts %.4f",
					shape.keys, shape.capacity, shape.accesses, skew, measured, predicted)
			}
		}
	}
}
