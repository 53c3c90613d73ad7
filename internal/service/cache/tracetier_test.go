package cache

import (
	"context"
	"testing"
)

// tierTrace adapts a Tier onto traceTier.
type tierTrace[V any] struct {
	t    *Tier[V]
	wrap func(s string, cost int64) V
	str  func(V) string
}

func (tr tierTrace[V]) do(ctx context.Context, key string, build func() (string, int64)) (string, bool, error) {
	v, hit, _, err := tr.t.Do(ctx, key, nil, func() (V, bool, error) {
		return tr.wrap(build()), true, nil
	})
	return tr.str(v), hit, err
}

func (tr tierTrace[V]) counts() traceCounts {
	s := tr.t.Stats()
	return traceCounts{Hits: s.Hits, Misses: s.Misses, Coalesced: s.Coalesced,
		Evictions: s.Evictions, Rejected: s.Rejected, Builds: s.Builds}
}

func (tr tierTrace[V]) keys() []string { return tr.t.Keys() }

// newTraceResultTier builds the result tier's shape: unit-cost LRU.
func newTraceResultTier(capacity int) traceTier {
	return tierTrace[string]{
		t:    New(Config[string]{Name: "result", Budget: int64(capacity)}),
		wrap: func(s string, _ int64) string { return s },
		str:  func(s string) string { return s },
	}
}

// newTraceMatrixTier builds the matrix tier's shape: cost-bounded LRU.
func newTraceMatrixTier(t *testing.T, budget int64) traceTier {
	t.Helper()
	return tierTrace[priced]{
		t:    newPriced(budget),
		wrap: func(s string, cost int64) priced { return priced{s, cost} },
		str:  func(p priced) string { s, _ := p.v.(string); return s },
	}
}
