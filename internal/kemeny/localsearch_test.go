package kemeny

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"manirank/internal/attribute"
	"manirank/internal/ranking"
)

func TestLocalSearchNeverWorsens(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 2+rng.Intn(20), 1+rng.Intn(8)
		w := ranking.MustPrecedence(randomProfile(n, m, rng))
		start := ranking.Random(n, rng)
		before := w.KemenyCost(start)
		out := LocalSearch(w, start)
		return w.KemenyCost(out) <= before && out.IsValid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalSearchReachesOptimumSmallN(t *testing.T) {
	// On tiny instances the insertion neighbourhood from a Borda seed almost
	// always reaches the optimum; verify it at least matches on unanimous
	// profiles where the optimum is obvious.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(10)
		modal := ranking.Random(n, rng)
		p := ranking.Profile{modal.Clone(), modal.Clone(), modal.Clone()}
		w := ranking.MustPrecedence(p)
		got := LocalSearch(w, ranking.Random(n, rng))
		if w.KemenyCost(got) != 0 {
			t.Fatalf("unanimous profile: cost %d, want 0", w.KemenyCost(got))
		}
	}
}

func TestHeuristicCloseToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		n := 5 + rng.Intn(6)
		w := ranking.MustPrecedence(randomProfile(n, 5, rng))
		res := BranchAndBound(context.Background(), w, nil, nil, 0)
		h := Heuristic(w, Options{Seed: int64(trial)})
		if hc := w.KemenyCost(h); hc < res.Cost {
			t.Fatalf("heuristic cost %d below proven optimum %d", hc, res.Cost)
		}
	}
}

func TestHeuristicDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := ranking.MustPrecedence(randomProfile(15, 6, rng))
	a := Heuristic(w, Options{Seed: 42})
	b := Heuristic(w, Options{Seed: 42})
	if !a.Equal(b) {
		t.Fatal("heuristic not deterministic for a fixed seed")
	}
}

// TestBordaFromPrecedenceMatchesProfileBorda: the Borda seed the heuristic
// takes from the matrix (Precedence.Borda) equals an independent Borda by
// position points.
func TestBordaFromPrecedenceMatchesProfileBorda(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n, m := 2+rng.Intn(15), 1+rng.Intn(8)
		p := randomProfile(n, m, rng)
		w := ranking.MustPrecedence(p)
		got := w.Borda()
		// Independent Borda: points by position.
		points := make([]int, n)
		for _, r := range p {
			for i, c := range r {
				points[c] += n - 1 - i
			}
		}
		want := ranking.SortByPointsDesc(points)
		if !got.Equal(want) {
			t.Fatalf("Precedence.Borda = %v, want %v", got, want)
		}
	}
}

func TestConstrainedLocalSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		n := 6 + rng.Intn(10)
		w := ranking.MustPrecedence(randomProfile(n, 5, rng))
		a := binaryAttr(n, rng)
		cons := []Constraint{{Attr: a, Delta: 0.4}}
		// Build a feasible start: perfectly alternating by group.
		start := alternating(a)
		if !Feasible(start, cons) {
			continue
		}
		before := w.KemenyCost(start)
		out := ConstrainedSearch(w, cons, start, Options{Perturbations: -1})
		if !Feasible(out, cons) {
			t.Fatal("CLS output violates constraints")
		}
		if w.KemenyCost(out) > before {
			t.Fatal("CLS worsened the cost")
		}
		if !out.IsValid() {
			t.Fatal("CLS output invalid")
		}
	}
}

// alternating interleaves the two groups of a binary attribute.
func alternating(a *attribute.Attribute) ranking.Ranking {
	var g0, g1 []int
	for c, v := range a.Of {
		if v == 0 {
			g0 = append(g0, c)
		} else {
			g1 = append(g1, c)
		}
	}
	out := make(ranking.Ranking, 0, len(a.Of))
	for len(g0) > 0 || len(g1) > 0 {
		if len(g0) > 0 {
			out = append(out, g0[0])
			g0 = g0[1:]
		}
		if len(g1) > 0 {
			out = append(out, g1[0])
			g1 = g1[1:]
		}
	}
	return out
}

// TestConstrainedLocalSearchPanicsOnInfeasibleStart pins the descent-only
// path (Perturbations: -1): it too panics on an infeasible start.
func TestConstrainedLocalSearchPanicsOnInfeasibleStart(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
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
	ConstrainedSearch(w, []Constraint{{Attr: a, Delta: 0.1}}, ranking.New(6), Options{Perturbations: -1})
}

func TestConstrainedLocalSearchRecoversNearExact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		n := 6
		w := ranking.MustPrecedence(randomProfile(n, 5, rng))
		a := binaryAttr(n, rng)
		cons := []Constraint{{Attr: a, Delta: 0.5}}
		exact := BranchAndBound(context.Background(), w, cons, nil, 0)
		if exact.Ranking == nil {
			continue
		}
		start := alternating(a)
		if !Feasible(start, cons) {
			continue
		}
		cls := ConstrainedSearch(w, cons, start, Options{Perturbations: -1})
		if w.KemenyCost(cls) < exact.Cost {
			t.Fatalf("CLS cost %d below constrained optimum %d", w.KemenyCost(cls), exact.Cost)
		}
	}
}
