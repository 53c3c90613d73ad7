package kemeny

import (
	"context"
	"math/rand"
	"testing"

	"manirank/internal/attribute"
	"manirank/internal/ranking"
)

// restartWorkerCounts is the acceptance grid: the sharded restart engine must
// be bitwise identical across all of these pool widths.
var restartWorkerCounts = []int{1, 2, 4, 8}

func TestHeuristicBitwiseIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 6; trial++ {
		n := 10 + rng.Intn(40)
		w := ranking.MustPrecedence(randomProfile(n, 3+rng.Intn(6), rng))
		opts := Options{Seed: int64(100 + trial), Perturbations: 12, Strength: 5}
		opts.Workers = 1
		want := Heuristic(w, opts)
		for _, workers := range restartWorkerCounts[1:] {
			opts.Workers = workers
			if got := Heuristic(w, opts); !got.Equal(want) {
				t.Fatalf("n=%d: Heuristic differs between 1 and %d workers:\n%v\n%v", n, workers, want, got)
			}
		}
	}
}

func TestConstrainedSearchBitwiseIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 6; trial++ {
		n := 8 + 2*rng.Intn(12)
		w := ranking.MustPrecedence(randomProfile(n, 5, rng))
		a := binaryAttr(n, rng)
		cons := []Constraint{{Attr: a, Delta: 0.4}}
		start := alternating(a)
		if !Feasible(start, cons) {
			continue
		}
		opts := Options{Seed: int64(trial), Perturbations: 12, Strength: 5}
		opts.Workers = 1
		want := ConstrainedSearch(w, cons, start, opts)
		for _, workers := range restartWorkerCounts[1:] {
			opts.Workers = workers
			if got := ConstrainedSearch(w, cons, start, opts); !got.Equal(want) {
				t.Fatalf("n=%d: ConstrainedSearch differs between 1 and %d workers:\n%v\n%v", n, workers, want, got)
			}
		}
	}
}

func TestConstrainedSearchFeasibleAndNoWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 12; trial++ {
		n := 6 + rng.Intn(14)
		w := ranking.MustPrecedence(randomProfile(n, 5, rng))
		a := binaryAttr(n, rng)
		cons := []Constraint{{Attr: a, Delta: 0.4}}
		start := alternating(a)
		if !Feasible(start, cons) {
			continue
		}
		before := w.KemenyCost(start)
		out := ConstrainedSearch(w, cons, start, Options{Seed: int64(trial), Workers: 4})
		if !out.IsValid() {
			t.Fatal("ConstrainedSearch output invalid")
		}
		if !Feasible(out, cons) {
			t.Fatal("ConstrainedSearch output violates constraints")
		}
		if w.KemenyCost(out) > before {
			t.Fatalf("ConstrainedSearch worsened cost: %d -> %d", before, w.KemenyCost(out))
		}
		// Restarts never fall below the plain descent: the descent result is
		// the seed every restart must strictly beat to replace.
		cls := ConstrainedSearch(w, cons, start, Options{Perturbations: -1})
		if w.KemenyCost(out) > w.KemenyCost(cls) {
			t.Fatalf("ConstrainedSearch %d worse than plain descent %d", w.KemenyCost(out), w.KemenyCost(cls))
		}
	}
}

func TestConstrainedSearchPanicsOnInfeasibleStart(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	w := ranking.MustPrecedence(randomProfile(6, 3, rng))
	a, err := attribute.NewAttribute("g", []string{"A", "B"}, []int{0, 0, 0, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for infeasible start")
		}
	}()
	ConstrainedSearch(w, []Constraint{{Attr: a, Delta: 0.1}}, ranking.New(6), Options{})
}

// TestHeuristicNeverWorseThanSeedDescent pins the merge contract: the
// restarts only ever replace the seed local optimum with a strictly better
// ranking.
func TestHeuristicNeverWorseThanSeedDescent(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(30)
		w := ranking.MustPrecedence(randomProfile(n, 4, rng))
		seed := LocalSearch(w, w.Borda())
		h := Heuristic(w, Options{Seed: int64(trial), Workers: 4})
		if w.KemenyCost(h) > w.KemenyCost(seed) {
			t.Fatalf("Heuristic cost %d above its own seed descent %d", w.KemenyCost(h), w.KemenyCost(seed))
		}
	}
}

func TestRestartSeedsDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		for _, constrained := range []bool{false, true} {
			s := restartSeed(42, i, constrained)
			if seen[s] {
				t.Fatalf("restartSeed collision at index %d (constrained=%v)", i, constrained)
			}
			seen[s] = true
		}
	}
	if restartSeed(1, 0, false) == restartSeed(2, 0, false) {
		t.Fatal("restartSeed ignores the run seed")
	}
}

// TestRestartAllocFree pins the searchScratch contract: once a worker's
// scratch is warm, a restart that does not beat the seed allocates nothing —
// no per-scan closure, no tracker scratch — constrained or not.
func TestRestartAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 30
	w := ranking.MustPrecedence(randomProfile(n, 7, rng))
	cons := []Constraint{
		{Attr: binaryAttr(n, rng), Delta: 0.5},
		{Attr: ternaryAttr(n, rng), Delta: 0.6},
	}
	start := ranking.Random(n, rng)
	for !Feasible(start, cons) {
		start = ranking.Random(n, rng)
	}
	ctx := context.Background()
	opts := Options{Seed: 5}.WithDefaults()
	for _, tc := range []struct {
		name string
		cons []Constraint
	}{{"constrained", cons}, {"unconstrained", nil}} {
		seed := Sync(w, start.Clone())
		seed.descend(ctx, w, tc.cons)
		sc := new(searchScratch)
		idx := -1
		for i := 0; i < 64 && idx < 0; i++ {
			if sc.runRestart(ctx, w, tc.cons, seed, opts, i) == nil {
				idx = i
			}
		}
		if idx < 0 {
			t.Fatalf("%s: every restart improved on the seed", tc.name)
		}
		allocs := testing.AllocsPerRun(20, func() {
			sc.runRestart(ctx, w, tc.cons, seed, opts, idx)
		})
		if allocs != 0 {
			t.Fatalf("%s: non-improving restart made %v allocations, want 0", tc.name, allocs)
		}
	}
}
