package kemeny

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"manirank/internal/ranking"
)

// TestIncumbentSwapKeepsStateExact: the state an Incumbent carries through
// a Make-MR-Fair repair stays exact. After every Swap — adjacent, spanning
// most of the ranking, or random, over plain, weighted and unanimous
// matrices — the ranking is the swapped one, and its bounds and cost equal
// a fresh InversionMass of it. A search from the carried state then matches
// one from a fresh Sync of the same ranking, ranking and cost.
func TestIncumbentSwapKeepsStateExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	ctx := context.Background()
	swaps := 0
	for _, kind := range []string{"plain", "weighted", "unanimous"} {
		for trial := 0; trial < 30; trial++ {
			n := 2 + rng.Intn(50)
			w := pruneInstance(kind, n, rng)
			in := Sync(w, ranking.Random(n, rng))
			want := in.Ranking().Clone()
			up, dn := make([]int, n), make([]int, n)
			for s := 0; s < 3*n; s++ {
				i, j := rng.Intn(n), rng.Intn(n)
				switch s % 3 {
				case 0:
					j = i + 1
				case 1:
					i, j = rng.Intn(1+n/4), n-1-rng.Intn(1+n/4)
				}
				if i > j {
					i, j = j, i
				}
				if i == j || j >= n {
					continue
				}
				in.Swap(w, i, j)
				want.Swap(i, j)
				swaps++
				if !in.Ranking().Equal(want) {
					t.Fatalf("%s trial %d: Swap(%d, %d) left %v, want %v", kind, trial, i, j, in.Ranking(), want)
				}
				cost := w.InversionMass(want, up, dn)
				if in.Cost() != cost || !slices.Equal(in.sc.up, up) || !slices.Equal(in.sc.dn, dn) {
					t.Fatalf("%s trial %d: after Swap(%d, %d) the carried state drifted\ncost %d, fresh %d\nup %v, fresh %v\ndn %v, fresh %v",
						kind, trial, i, j, in.Cost(), cost, in.sc.up, up, in.sc.dn, dn)
				}
			}
			opts := Options{Seed: int64(trial), Perturbations: 3, Workers: 1}
			got := ConstrainedSearchFrom(ctx, w, nil, in, opts)
			ref := ConstrainedSearchFrom(ctx, w, nil, Sync(w, want.Clone()), opts)
			if !got.Ranking().Equal(ref.Ranking()) || got.Cost() != ref.Cost() {
				t.Fatalf("%s trial %d: search from the carried state gave cost %d %v, from a fresh sync %d %v",
					kind, trial, got.Cost(), got.Ranking(), ref.Cost(), ref.Ranking())
			}
			if got.Cost() != w.KemenyCost(got.Ranking()) {
				t.Fatalf("%s trial %d: search reports cost %d, KemenyCost %d", kind, trial, got.Cost(), w.KemenyCost(got.Ranking()))
			}
		}
	}
	if swaps < 1000 {
		t.Fatalf("only %d swaps checked", swaps)
	}
}

// TestHeuristicSearchStateExact: the incumbent the unconstrained search
// hands on — the seed descent's, or the clones of a restart that beat it —
// holds Heuristic's ranking with bounds and a cost equal to a fresh
// InversionMass of it, for worker counts 1 and 2. Some instances must be
// won by a restart, or the clone path is not exercised.
func TestHeuristicSearchStateExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1414))
	ctx := context.Background()
	restartWins := 0
	for trial := 0; trial < 40; trial++ {
		n, m := 8+rng.Intn(40), 3+rng.Intn(6)
		w := ranking.MustPrecedence(randomProfile(n, m, rng))
		seed := Sync(w, w.Borda())
		seed.descend(ctx, w, nil)
		for _, workers := range []int{1, 2} {
			opts := Options{Seed: int64(trial), Perturbations: 6, Workers: workers}
			in := HeuristicSearch(ctx, w, opts)
			if want := Heuristic(w, opts); !in.Ranking().Equal(want) {
				t.Fatalf("trial %d workers %d: HeuristicSearch ranking %v, Heuristic %v", trial, workers, in.Ranking(), want)
			}
			up, dn := make([]int, n), make([]int, n)
			cost := w.InversionMass(in.Ranking(), up, dn)
			if in.Cost() != cost || !slices.Equal(in.sc.up, up) || !slices.Equal(in.sc.dn, dn) {
				t.Fatalf("trial %d workers %d: handed-on state drifted: cost %d, fresh %d", trial, workers, in.Cost(), cost)
			}
			if workers == 1 && in.Cost() < seed.Cost() {
				restartWins++
			}
		}
	}
	if restartWins == 0 {
		t.Fatal("no restart beat its seed: the instances do not exercise the restart hand-off")
	}
}
