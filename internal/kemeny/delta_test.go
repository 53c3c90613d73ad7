package kemeny

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"manirank/internal/ranking"
)

// TestLocalSearchDeltaMatchesFullCost verifies the incremental contract
// Heuristic relies on: the delta the unconstrained descent returns equals the
// change in the full O(n^2) Kemeny cost.
func TestLocalSearchDeltaMatchesFullCost(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 2+rng.Intn(25), 1+rng.Intn(8)
		w := ranking.MustPrecedence(randomProfile(n, m, rng))
		r := ranking.Random(n, rng)
		before := w.KemenyCost(r)
		sc := new(searchScratch)
		sc.sync(w, nil, r)
		delta := sc.descentDelta(context.Background(), w, r)
		return before+delta == w.KemenyCost(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPerturbDeltaMatchesFullCost does the same for the perturbation moves,
// both unconstrained (nil constraints accept every move) and constrained.
func TestPerturbDeltaMatchesFullCost(t *testing.T) {
	f := func(seed int64, constrained bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 2+rng.Intn(25), 1+rng.Intn(8)
		w := ranking.MustPrecedence(randomProfile(n, m, rng))
		r := ranking.Random(n, rng)
		var cons []Constraint
		if constrained && n >= 4 {
			cons = []Constraint{{Attr: binaryAttr(n, rng), Delta: 0.9}}
		}
		wasFeasible := Feasible(r, cons)
		before := w.KemenyCost(r)
		sc := new(searchScratch)
		sc.sync(w, cons, r)
		delta := sc.perturbFeasibleDelta(w, r, 6, rng)
		// The delta is exact, and feasibility-preserving moves never break a
		// feasible start.
		return before+delta == w.KemenyCost(r) && (!wasFeasible || Feasible(r, cons))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestHeuristicCostNeverWorseThanSeed pins the Heuristic invariant that the
// incrementally-tracked best cost corresponds to the returned ranking.
func TestHeuristicBestMatchesReportedRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(20)
		w := ranking.MustPrecedence(randomProfile(n, 7, rng))
		best := Heuristic(w, Options{Seed: int64(trial)})
		seed := LocalSearch(w, w.Borda())
		if w.KemenyCost(best) > w.KemenyCost(seed) {
			t.Fatalf("Heuristic returned a ranking worse than its own seed (%d > %d)",
				w.KemenyCost(best), w.KemenyCost(seed))
		}
	}
}
