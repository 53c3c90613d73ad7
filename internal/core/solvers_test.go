package core

import (
	"context"
	"math/rand"
	"testing"

	"manirank/internal/aggregate"
	"manirank/internal/fairness"
	"manirank/internal/kemeny"
	"manirank/internal/mallows"
	"manirank/internal/ranking"
)

// lowFairProfile builds a biased Mallows profile over the test table.
func lowFairProfile(t *testing.T, n, m int, theta float64, seed int64) (ranking.Profile, *ranking.Precedence) {
	t.Helper()
	tab := testTable(t, n)
	modal := blockRanking(tab)
	model := mallows.MustNew(modal, theta)
	rng := rand.New(rand.NewSource(seed))
	p := model.SampleProfile(m, rng)
	return p, ranking.MustPrecedence(p)
}

func TestAllSolversSatisfyTargets(t *testing.T) {
	const n = 45
	tab := testTable(t, n)
	p, w := lowFairProfile(t, n, 20, 0.5, 1)
	targets := Targets(tab, 0.12)
	solvers := []struct {
		name string
		run  func() (ranking.Ranking, error)
	}{
		{"FairBorda", func() (ranking.Ranking, error) { return FairBorda(p, targets) }},
		{"FairCopeland", func() (ranking.Ranking, error) { return FairCopelandW(w, targets) }},
		{"FairSchulze", func() (ranking.Ranking, error) { return FairSchulzeW(w, targets) }},
		{"FairKemeny", func() (ranking.Ranking, error) {
			r, _, err := FairKemenyW(context.Background(), w, targets, kemeny.Options{})
			return r, err
		}},
		{"CorrectFairestPerm", func() (ranking.Ranking, error) { return CorrectFairestPerm(p, targets) }},
	}
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			r, err := s.run()
			if err != nil {
				t.Fatal(err)
			}
			if !r.IsValid() {
				t.Fatal("invalid permutation")
			}
			if v, idx := MaxViolation(r, targets); v > 0 {
				t.Fatalf("violates target %d by %v", idx, v)
			}
		})
	}
}

func TestFairKemenyBeatsRepairMethodsOnPDLoss(t *testing.T) {
	const n = 45
	tab := testTable(t, n)
	p, w := lowFairProfile(t, n, 20, 0.5, 2)
	targets := Targets(tab, 0.12)
	fk, _, err := FairKemenyW(context.Background(), w, targets, kemeny.Options{})
	if err != nil {
		t.Fatal(err)
	}
	others := []func() (ranking.Ranking, error){
		func() (ranking.Ranking, error) { return FairBorda(p, targets) },
		func() (ranking.Ranking, error) { return FairCopelandW(w, targets) },
		func() (ranking.Ranking, error) { return FairSchulzeW(w, targets) },
		func() (ranking.Ranking, error) { return CorrectFairestPerm(p, targets) },
	}
	for _, other := range others {
		r, err := other()
		if err != nil {
			t.Fatal(err)
		}
		if w.PDLoss(fk) > w.PDLoss(r)+1e-9 {
			t.Fatalf("Fair-Kemeny PD loss %v worse than alternative %v", w.PDLoss(fk), w.PDLoss(r))
		}
	}
}

func TestFairKemenyExactMatchesConstrainedBB(t *testing.T) {
	// At small n (below the exact threshold) FairKemeny must return the
	// provably optimal fair consensus.
	tab := testTable(t, 10) // inter groups too small: use attribute targets
	rng := rand.New(rand.NewSource(3))
	modal := blockRanking(tab)
	model := mallows.MustNew(modal, 0.4)
	p := model.SampleProfile(10, rng)
	w := ranking.MustPrecedence(p)
	targets := AttributeTargets(tab, 0.25)
	got, _, err := FairKemenyW(context.Background(), w, targets, kemeny.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := kemeny.BranchAndBound(context.Background(), w, targets, nil, 0)
	if res.Ranking == nil || !res.Optimal {
		t.Fatal("reference search failed")
	}
	if w.KemenyCost(got) != res.Cost {
		t.Fatalf("FairKemeny cost %d, constrained optimum %d", w.KemenyCost(got), res.Cost)
	}
}

func TestPriceOfFairnessNonNegative(t *testing.T) {
	const n = 45
	tab := testTable(t, n)
	p, w := lowFairProfile(t, n, 15, 0.6, 4)
	targets := Targets(tab, 0.1)
	unfair := aggregate.Kemeny(context.Background(), w, kemeny.Options{}).Ranking()
	fair, _, err := FairKemenyW(context.Background(), w, targets, kemeny.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pof := PriceOfFairnessW(w, fair, unfair)
	if pof < 0 {
		t.Fatalf("PoF = %v < 0: fair consensus beats the unconstrained optimum", pof)
	}
	if got, want := PriceOfFairness(p, fair, unfair), pof; got-want > 1e-12 || want-got > 1e-12 {
		t.Fatalf("profile PoF %v != precedence PoF %v", got, want)
	}
}

func TestPoFDecreasesWithLooserDelta(t *testing.T) {
	const n = 45
	tab := testTable(t, n)
	_, w := lowFairProfile(t, n, 15, 0.6, 5)
	unfair := aggregate.Kemeny(context.Background(), w, kemeny.Options{}).Ranking()
	prev := -1.0
	for _, delta := range []float64{0.5, 0.3, 0.1} {
		fair, _, err := FairKemenyW(context.Background(), w, Targets(tab, delta), kemeny.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pof := PriceOfFairnessW(w, fair, unfair)
		if prev >= 0 && pof < prev-1e-9 {
			t.Fatalf("PoF at delta=%v (%v) below PoF at looser delta (%v)", delta, pof, prev)
		}
		prev = pof
	}
}

func TestPickFairestMatchesAggregateBaseline(t *testing.T) {
	const n = 45
	tab := testTable(t, n)
	p, _ := lowFairProfile(t, n, 12, 0.3, 6)
	targets := Targets(tab, 0.1)
	got, err := PickFairest(p, targets)
	if err != nil {
		t.Fatal(err)
	}
	want, err := aggregate.PickFairestPerm(p, tab)
	if err != nil {
		t.Fatal(err)
	}
	// Both choose the base ranking with the minimum max ARP/IRP violation.
	if !got.Equal(want) {
		t.Fatalf("PickFairest = %v..., aggregate baseline = %v...", got[:5], want[:5])
	}
}

func TestCorrectFairestPermHigherLossThanFairKemeny(t *testing.T) {
	const n = 45
	tab := testTable(t, n)
	p, w := lowFairProfile(t, n, 20, 0.6, 7)
	targets := Targets(tab, 0.1)
	cfp, err := CorrectFairestPerm(p, targets)
	if err != nil {
		t.Fatal(err)
	}
	fk, _, err := FairKemenyW(context.Background(), w, targets, kemeny.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w.PDLoss(cfp) < w.PDLoss(fk)-1e-9 {
		t.Fatalf("Correct-Fairest-Perm PD loss %v beat Fair-Kemeny %v", w.PDLoss(cfp), w.PDLoss(fk))
	}
}

func TestFairSolversIndependentAudit(t *testing.T) {
	// Cross-check solver outputs against the fairness package audit.
	const n = 30
	tab := testTable(t, n)
	p, _ := lowFairProfile(t, n, 10, 0.4, 8)
	r, err := FairBorda(p, Targets(tab, 0.15))
	if err != nil {
		t.Fatal(err)
	}
	rep := fairness.Audit(r, tab)
	if !rep.Satisfies(0.15) {
		t.Fatalf("audit violation: %v", rep.String())
	}
}

// TestFairBordaWMatchesFairBorda: the precomputed-matrix entry point must be
// bitwise identical to the profile one — the serving layer routes fair-borda
// through the shared precedence tier on the strength of this.
func TestFairBordaWMatchesFairBorda(t *testing.T) {
	const n = 45
	tab := testTable(t, n)
	targets := Targets(tab, 0.15)
	for seed := int64(1); seed <= 5; seed++ {
		p, w := lowFairProfile(t, n, 16, 0.4, seed)
		direct, err := FairBorda(p, targets)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fromW, err := FairBordaW(w, targets)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !fromW.Equal(direct) {
			t.Fatalf("seed %d: FairBordaW diverged from FairBorda\n  W: %v\n  p: %v", seed, fromW, direct)
		}
	}
}

// TestRepairSwapsCarryIncumbent: the swaps repair reports are the ones
// it applies, so FairKemenyW's incumbent follows the repair exactly.
// Replayed through the hook on a kemeny.Incumbent, after every swap (i < j)
// the incumbent's ranking equals a mirror the same swaps were applied to,
// and its carried cost equals a fresh KemenyCost; the final ranking is
// MakeMRFair's. Starts are block rankings (long swaps) and near-consensus
// Mallows draws (short ones), at three deltas.
func TestRepairSwapsCarryIncumbent(t *testing.T) {
	swaps := 0
	for trial := 0; trial < 18; trial++ {
		n := 30 + 15*(trial%4)
		p, w := lowFairProfile(t, n, 6, 0.3, int64(trial))
		tab := testTable(t, n)
		start := p[0]
		if trial%2 == 0 {
			start = blockRanking(tab)
		}
		targets := Targets(tab, []float64{0.05, 0.1, 0.3}[trial%3])
		in := kemeny.Sync(w, start.Clone())
		mirror := start.Clone()
		got, _, err := repair(in.Ranking(), targets, (*parityEngine).paperSwap, func(i, j int) {
			if i >= j {
				t.Fatalf("trial %d: hook told swap (%d, %d), want i < j", trial, i, j)
			}
			in.Swap(w, i, j)
			mirror.Swap(i, j)
			swaps++
			if !in.Ranking().Equal(mirror) {
				t.Fatalf("trial %d: incumbent ranking left the repair's after swap (%d, %d)", trial, i, j)
			}
			if cost := w.KemenyCost(mirror); in.Cost() != cost {
				t.Fatalf("trial %d: carried cost %d after swap (%d, %d), KemenyCost %d", trial, in.Cost(), i, j, cost)
			}
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := MakeMRFair(start, targets)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !got.Equal(want) || !in.Ranking().Equal(want) {
			t.Fatalf("trial %d: hooked repair %v, incumbent %v, MakeMRFair %v", trial, got, in.Ranking(), want)
		}
	}
	if swaps < 200 {
		t.Fatalf("only %d repair swaps replayed", swaps)
	}
}
