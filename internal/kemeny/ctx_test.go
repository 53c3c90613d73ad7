package kemeny

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"manirank/internal/ranking"
)

// These tests pin the cancellation contract the serving layer depends on:
// a cancelled search returns the best (feasible) ranking found so far —
// never nil, never a zero value, never an infeasible ranking — and a
// never-cancelled context changes nothing.

func TestHeuristicCtxCancelledReturnsBestSoFar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	w := ranking.MustPrecedence(randomProfile(40, 6, rng))
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the search even starts
	got := HeuristicSearch(ctx, w, Options{Seed: 7, Perturbations: 16, Strength: 4}).Ranking()
	if got == nil {
		t.Fatal("cancelled HeuristicSearch returned nil")
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("cancelled HeuristicSearch returned invalid ranking: %v", err)
	}
	// Worst case it fell straight back to the Borda seed; it must never be
	// worse than that.
	if seed, gotCost := w.Borda(), w.KemenyCost(got); gotCost > w.KemenyCost(seed) {
		t.Fatalf("cancelled result cost %d worse than Borda seed %d", gotCost, w.KemenyCost(seed))
	}
}

func TestConstrainedSearchCtxCancelledStaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 8; trial++ {
		n := 8 + 2*rng.Intn(10)
		w := ranking.MustPrecedence(randomProfile(n, 5, rng))
		a := binaryAttr(n, rng)
		cons := []Constraint{{Attr: a, Delta: 0.4}}
		start := alternating(a)
		if !Feasible(start, cons) {
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		got := ConstrainedSearchFrom(ctx, w, cons, Sync(w, start.Clone()), Options{Seed: int64(trial), Perturbations: 12, Strength: 4}).Ranking()
		if got == nil {
			t.Fatal("cancelled ConstrainedSearchFrom returned nil")
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("cancelled ConstrainedSearchFrom returned invalid ranking: %v", err)
		}
		if !Feasible(got, cons) {
			t.Fatalf("cancelled ConstrainedSearchFrom returned infeasible ranking %v", got)
		}
		if w.KemenyCost(got) > w.KemenyCost(start) {
			t.Fatalf("cancelled result cost %d worse than start %d", w.KemenyCost(got), w.KemenyCost(start))
		}
	}
}

func TestCtxCancelledMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	w := ranking.MustPrecedence(randomProfile(120, 8, rng))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	got := HeuristicSearch(ctx, w, Options{Seed: 3, Perturbations: 256, Strength: 8, Workers: 4}).Ranking()
	if got == nil {
		t.Fatal("mid-run cancelled HeuristicSearch returned nil")
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("mid-run cancelled HeuristicSearch returned invalid ranking: %v", err)
	}
}

func TestBranchAndBoundCtxCancelledReturnsIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	w := ranking.MustPrecedence(randomProfile(12, 3, rng))
	incumbent := LocalSearch(w, w.Borda())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := BranchAndBound(ctx, w, nil, incumbent, 0)
	if res.Optimal {
		t.Fatal("cancelled search claimed optimality")
	}
	if res.Ranking == nil {
		t.Fatal("cancelled search dropped its incumbent")
	}
	if !res.Ranking.Equal(incumbent) {
		t.Fatalf("cancelled search returned %v, want incumbent %v", res.Ranking, incumbent)
	}
}

// TestCtxBackgroundMatchesPlainEngines: a live context that is never
// cancelled changes nothing — the context entries return the rankings of
// the context-free calls, with their exact costs.
func TestCtxBackgroundMatchesPlainEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, workers := range []int{1, 4} {
		w := ranking.MustPrecedence(randomProfile(30, 5, rng))
		opts := Options{Seed: 11, Perturbations: 12, Strength: 5, Workers: workers}
		in := HeuristicSearch(ctx, w, opts)
		if want := Heuristic(w, opts); !in.Ranking().Equal(want) {
			t.Fatalf("workers=%d: HeuristicSearch(live ctx) deviates from Heuristic", workers)
		}
		if in.Cost() != w.KemenyCost(in.Ranking()) {
			t.Fatalf("workers=%d: HeuristicSearch cost %d, KemenyCost %d", workers, in.Cost(), w.KemenyCost(in.Ranking()))
		}
		a := binaryAttr(30, rng)
		cons := []Constraint{{Attr: a, Delta: 0.5}}
		start := alternating(a)
		if !Feasible(start, cons) {
			continue
		}
		in = ConstrainedSearchFrom(ctx, w, cons, Sync(w, start.Clone()), opts)
		if want := ConstrainedSearch(w, cons, start, opts); !in.Ranking().Equal(want) {
			t.Fatalf("workers=%d: ConstrainedSearchFrom(live ctx) deviates from ConstrainedSearch", workers)
		}
		if in.Cost() != w.KemenyCost(in.Ranking()) {
			t.Fatalf("workers=%d: ConstrainedSearchFrom cost %d, KemenyCost %d", workers, in.Cost(), w.KemenyCost(in.Ranking()))
		}
	}
}
