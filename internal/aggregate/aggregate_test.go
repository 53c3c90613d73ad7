package aggregate

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"manirank/internal/attribute"
	"manirank/internal/fairness"
	"manirank/internal/kemeny"
	"manirank/internal/ranking"
)

func randomProfile(n, m int, rng *rand.Rand) ranking.Profile {
	p := make(ranking.Profile, m)
	for i := range p {
		p[i] = ranking.Random(n, rng)
	}
	return p
}

func binaryTable(tb testing.TB, n int) *attribute.Table {
	tb.Helper()
	g := make([]int, n)
	r := make([]int, n)
	for c := 0; c < n; c++ {
		g[c] = c % 2
		r[c] = (c / 2) % 2
	}
	ag, err := attribute.NewAttribute("Gender", []string{"M", "W"}, g)
	if err != nil {
		tb.Fatal(err)
	}
	ar, err := attribute.NewAttribute("Race", []string{"A", "B"}, r)
	if err != nil {
		tb.Fatal(err)
	}
	t, err := attribute.NewTable(n, ag, ar)
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

func TestAllAggregatorsReturnValidPermutations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 2+rng.Intn(15), 1+rng.Intn(8)
		p := randomProfile(n, m, rng)
		w := ranking.MustPrecedence(p)
		b, err := Borda(p)
		if err != nil || !b.IsValid() {
			return false
		}
		if !Copeland(w).IsValid() || !Schulze(w).IsValid() {
			return false
		}
		if !Kemeny(context.Background(), w, kemeny.Options{}).Ranking().IsValid() {
			return false
		}
		pa, err := PickAPerm(p)
		return err == nil && pa.IsValid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCondorcetConsistency(t *testing.T) {
	// When a Condorcet order exists, Copeland, Schulze, and exact Kemeny
	// must all return it.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(8)
		modal := ranking.Random(n, rng)
		// A strongly peaked profile: most rankings are the modal.
		p := ranking.Profile{modal.Clone(), modal.Clone(), modal.Clone(), ranking.Random(n, rng)}
		w := ranking.MustPrecedence(p)
		cond, ok := w.CondorcetOrder()
		if !ok {
			continue
		}
		if got := Copeland(w); !got.Equal(cond) {
			t.Fatalf("Copeland %v != Condorcet order %v", got, cond)
		}
		if got := Schulze(w); !got.Equal(cond) {
			t.Fatalf("Schulze %v != Condorcet order %v", got, cond)
		}
		if got := Kemeny(context.Background(), w, kemeny.Options{}).Ranking(); !got.Equal(cond) {
			t.Fatalf("Kemeny %v != Condorcet order %v", got, cond)
		}
	}
}

func TestBordaKnownExample(t *testing.T) {
	// Two rankings: [0 1 2] and [1 0 2]; points: 0 -> 2+1=3, 1 -> 1+2=3,
	// 2 -> 0. Tie between 0 and 1 breaks to lower id.
	p := ranking.Profile{{0, 1, 2}, {1, 0, 2}}
	got, err := Borda(p)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ranking.Ranking{0, 1, 2}) {
		t.Fatalf("Borda = %v", got)
	}
}

func TestCopelandTieCountsAsWinForBoth(t *testing.T) {
	// Profile splits evenly on (0 vs 1): both earn the contest point, and
	// both beat 2, so the order is 0, 1, 2 (tie broken by id).
	p := ranking.Profile{{0, 1, 2}, {1, 0, 2}}
	w := ranking.MustPrecedence(p)
	got := Copeland(w)
	if !got.Equal(ranking.Ranking{0, 1, 2}) {
		t.Fatalf("Copeland = %v", got)
	}
}

func TestSchulzeBeatsPathExample(t *testing.T) {
	// Classic Schulze example structure: with a clear majority order the
	// strongest paths follow direct comparisons.
	modal := ranking.Ranking{2, 0, 3, 1}
	p := ranking.Profile{modal.Clone(), modal.Clone(), modal.Clone()}
	got := Schulze(ranking.MustPrecedence(p))
	if !got.Equal(modal) {
		t.Fatalf("Schulze = %v, want %v", got, modal)
	}
}

func TestKemenyExactSmallProfiles(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(6)
		p := randomProfile(n, 5, rng)
		w := ranking.MustPrecedence(p)
		got := Kemeny(context.Background(), w, kemeny.Options{}).Ranking()
		res := kemeny.BranchAndBound(context.Background(), w, nil, nil, 0)
		if w.KemenyCost(got) != res.Cost {
			t.Fatalf("Kemeny cost %d, optimum %d", w.KemenyCost(got), res.Cost)
		}
	}
}

func TestPickAPermReturnsBestBaseRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomProfile(10, 6, rng)
	w := ranking.MustPrecedence(p)
	got, err := PickAPerm(p)
	if err != nil {
		t.Fatal(err)
	}
	best := w.KemenyCost(got)
	for _, r := range p {
		if w.KemenyCost(r) < best {
			t.Fatalf("PickAPerm missed a better base ranking")
		}
	}
}

func TestPickFairestPerm(t *testing.T) {
	tab := binaryTable(t, 8)
	// One blatantly unfair ranking (blocks) and one alternating fair one.
	unfair := ranking.Ranking{0, 2, 4, 6, 1, 3, 5, 7} // men block on top
	fair := ranking.Ranking{0, 1, 2, 3, 4, 5, 6, 7}   // alternates genders
	p := ranking.Profile{unfair, fair}
	got, err := PickFairestPerm(p, tab)
	if err != nil {
		t.Fatal(err)
	}
	gv := fairness.Audit(got, tab).MaxViolation()
	for _, r := range p {
		if fairness.Audit(r, tab).MaxViolation() < gv-1e-12 {
			t.Fatal("PickFairestPerm did not choose the fairest base ranking")
		}
	}
}

func TestFairnessOrder(t *testing.T) {
	tab := binaryTable(t, 8)
	unfair := ranking.Ranking{0, 2, 4, 6, 1, 3, 5, 7}
	fair := ranking.Ranking{0, 1, 2, 3, 4, 5, 6, 7}
	order := FairnessOrder(ranking.Profile{fair, unfair}, tab)
	if order[0] != 1 || order[1] != 0 {
		t.Fatalf("FairnessOrder = %v, want [1 0] (least fair first)", order)
	}
}

func TestKemenyWeightedValid(t *testing.T) {
	tab := binaryTable(t, 12)
	rng := rand.New(rand.NewSource(6))
	p := randomProfile(12, 8, rng)
	got, err := KemenyWeighted(p, tab, kemeny.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsValid() {
		t.Fatal("Kemeny-Weighted returned an invalid ranking")
	}
}

func TestKemenyWeightedPrefersFairestRanking(t *testing.T) {
	// With two candidate orders split 50/50, the weighting must tip the
	// consensus toward the fairer ranking.
	tab := binaryTable(t, 8)
	unfair := ranking.Ranking{0, 2, 4, 6, 1, 3, 5, 7}
	fair := ranking.Ranking{1, 0, 3, 2, 5, 4, 7, 6}
	p := ranking.Profile{unfair, fair}
	got, err := KemenyWeighted(p, tab, kemeny.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := ranking.MustPrecedence(ranking.Profile{fair})
	if w.KemenyCost(got) != 0 {
		t.Fatalf("Kemeny-Weighted should reproduce the fairest ranking, got %v", got)
	}
}

func TestBordaRejectsInvalidProfile(t *testing.T) {
	if _, err := Borda(ranking.Profile{}); err == nil {
		t.Error("empty profile accepted")
	}
	if _, err := PickAPerm(ranking.Profile{{0, 0}}); err == nil {
		t.Error("invalid profile accepted")
	}
	if _, err := PickFairestPerm(ranking.Profile{{0, 1}}, binaryTable(t, 8)); err == nil {
		t.Error("size mismatch accepted")
	}
}

// TestBordaWMatchesBorda: the precedence-matrix Borda (Precedence.Borda,
// from the row sums the matrix keeps) must be bitwise identical to the profile
// computation for every profile — whether the matrix was built, patched
// ranking by ranking, or decoded from its wire form, the three ways a matrix
// reaches a solver — the equivalence the serving layer's shared matrix tier
// rests on.
func TestBordaWMatchesBorda(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 2+rng.Intn(40), 1+rng.Intn(20)
		p := randomProfile(n, m, rng)
		direct, err := Borda(p)
		if err != nil {
			return false
		}
		built := ranking.MustPrecedence(p)
		patched := ranking.MustPrecedence(p[:1])
		for _, r := range p[1:] {
			if patched.AddRanking(r) != nil {
				return false
			}
		}
		wire, _ := built.MarshalBinary()
		decoded, err := ranking.UnmarshalPrecedence(wire)
		if err != nil {
			return false
		}
		return built.Borda().Equal(direct) && patched.Borda().Equal(direct) && decoded.Borda().Equal(direct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// PickAPerm returns the base ranking closest to the whole profile (minimum
// total Kendall tau distance), the Schalekamp & van Zuylen pick-a-perm
// 2-approximation of Kemeny.
func PickAPerm(p ranking.Profile) (ranking.Ranking, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	w := ranking.MustPrecedence(p)
	best, bestCost := -1, 0
	for i, r := range p {
		c := w.KemenyCost(r)
		if best < 0 || c < bestCost {
			best, bestCost = i, c
		}
	}
	return p[best].Clone(), nil
}
