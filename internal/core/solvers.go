package core

import (
	"context"
	"fmt"

	"manirank/internal/aggregate"
	"manirank/internal/fairness"
	"manirank/internal/kemeny"
	"manirank/internal/ranking"
)

// FairBorda solves MFCR with the Borda aggregator followed by Make-MR-Fair
// (paper Section III-B). It is the fastest MFCR method, O(n*|R| + n log n)
// plus the repair cost.
func FairBorda(p ranking.Profile, targets []Target) (ranking.Ranking, error) {
	c, err := aggregate.Borda(p)
	if err != nil {
		return nil, err
	}
	return MakeMRFair(c, targets)
}

// FairBordaW is FairBorda on a precomputed precedence matrix: the Borda
// totals derive from W's row sums (ranking.Precedence.Borda),
// integer-identical to the profile computation, so the repaired ranking
// matches FairBorda's bitwise. It exists for callers that already hold W —
// the Engine registry and the serving layer's shared precedence tier in
// particular.
func FairBordaW(w *ranking.Precedence, targets []Target) (ranking.Ranking, error) {
	return MakeMRFair(w.Borda(), targets)
}

// FairCopelandW solves MFCR with the Copeland pairwise-contest aggregator
// over a precomputed precedence matrix, followed by Make-MR-Fair (paper
// Section III-B).
func FairCopelandW(w *ranking.Precedence, targets []Target) (ranking.Ranking, error) {
	return MakeMRFair(aggregate.Copeland(w), targets)
}

// FairSchulzeW solves MFCR with the Schulze strongest-path aggregator over a
// precomputed precedence matrix, followed by Make-MR-Fair (paper Section
// III-B).
func FairSchulzeW(w *ranking.Precedence, targets []Target) (ranking.Ranking, error) {
	return MakeMRFair(aggregate.Schulze(w), targets)
}

// FairKemenyW solves MFCR over a precomputed precedence matrix by
// minimising pairwise disagreement subject to the MANI-Rank targets (paper
// Algorithm 1), and returns the fair consensus with its exact Kemeny cost
// against w. For n at or below opts.ExactThreshold it runs the constrained
// branch-and-bound (this repo's CPLEX substitute) seeded with a Make-MR-Fair
// repaired incumbent and returns the provably optimal fair consensus; for
// larger n it runs constrained local search from the same incumbent (see
// DESIGN.md, Substitutions).
//
// The three phases move one kemeny.Incumbent: the unconstrained search's
// result, its bounds synced by the search's one pair sweep, takes each
// Make-MR-Fair swap as two O(span) insertion moves, and the constrained
// descent starts from it. The cost is tracked exactly throughout, so
// neither a second sweep nor a final KemenyCost pass is paid.
//
// Cancellation is cooperative through every search stage (unconstrained
// Kemeny, constrained branch-and-bound, constrained local search): when ctx
// is done mid-solve the stages return their best-so-far rankings, so the
// result is still a feasible fair consensus — just potentially further from
// optimal — and its cost still exact. The Make-MR-Fair repair itself is
// polynomial and always runs to completion.
func FairKemenyW(ctx context.Context, w *ranking.Precedence, targets []Target, opts kemeny.Options) (ranking.Ranking, int, error) {
	opts = opts.WithDefaults()
	// Warm start (opts.Warm): when the previous consensus is still feasible
	// under the targets — parity depends only on the ranking and the
	// attributes, never on the profile, so a consensus solved before a
	// profile mutation remains feasible after it — it replaces the whole
	// unconstrained-Kemeny + Make-MR-Fair incumbent derivation. That skips
	// one of the two full search phases a cold Fair-Kemeny pays, which is
	// what makes session re-solves cheap. A warm ranking that is not a
	// permutation of w's candidates, or is infeasible, falls back to the
	// cold path.
	var in *kemeny.Incumbent
	if warm := opts.Warm; kemeny.UsableWarm(w, warm) && kemeny.Feasible(warm, targets) {
		in = kemeny.Sync(w, warm.Clone())
	} else {
		in = aggregate.Kemeny(ctx, w, opts)
		if _, _, err := repair(in.Ranking(), targets, (*parityEngine).paperSwap, func(i, j int) { in.Swap(w, i, j) }); err != nil {
			return nil, 0, fmt.Errorf("core: FairKemeny could not build a feasible incumbent: %w", err)
		}
	}
	if w.N() <= opts.ExactThreshold {
		res := kemeny.BranchAndBound(ctx, w, targets, in.Ranking(), opts.MaxNodes)
		if res.Ranking != nil {
			return res.Ranking, res.Cost, nil
		}
	}
	in = kemeny.ConstrainedSearchFrom(ctx, w, targets, in, opts)
	return in.Ranking(), in.Cost(), nil
}

// PickFairest returns the base ranking minimising the maximum violation of
// the given targets (ties to the earlier ranking).
func PickFairest(p ranking.Profile, targets []Target) (ranking.Ranking, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	best, bestViol := -1, 0.0
	for i, r := range p {
		v := 0.0
		for _, tg := range targets {
			if s := fairness.ARP(r, tg.Attr); s > v {
				v = s
			}
		}
		if best < 0 || v < bestViol {
			best, bestViol = i, v
		}
	}
	return p[best].Clone(), nil
}

// CorrectFairestPerm is the paper's Correct-Fairest-Perm baseline (Section
// IV-B): pick the fairest base ranking, then repair it with Make-MR-Fair so
// it satisfies the targets.
func CorrectFairestPerm(p ranking.Profile, targets []Target) (ranking.Ranking, error) {
	r, err := PickFairest(p, targets)
	if err != nil {
		return nil, err
	}
	return MakeMRFair(r, targets)
}

// PriceOfFairness returns PoF = PDLoss(R, fair) - PDLoss(R, unfair), the
// preference-representation cost of imposing fairness (paper Eq. 13). It is
// >= 0 whenever unfair is the unconstrained consensus of the same method.
func PriceOfFairness(p ranking.Profile, fair, unfair ranking.Ranking) float64 {
	return ranking.PDLoss(p, fair) - ranking.PDLoss(p, unfair)
}

// PriceOfFairnessW computes PoF from a precedence matrix.
func PriceOfFairnessW(w *ranking.Precedence, fair, unfair ranking.Ranking) float64 {
	return w.PDLoss(fair) - w.PDLoss(unfair)
}
