package kemeny

import (
	"context"
	"sync"

	"manirank/internal/obs"
	"manirank/internal/ranking"
)

// BordaFromPrecedence returns the Borda consensus computed directly from a
// precedence matrix: candidate c earns one point for every (ranking, rival)
// pair that places c above the rival, i.e. m*(n-1) minus c's row sum. One
// sequential pass per row. Ties break by candidate id for determinism.
func BordaFromPrecedence(w *ranking.Precedence) ranking.Ranking {
	n := w.N()
	m := w.Rankings()
	points := make([]int, n)
	for c := 0; c < n; c++ {
		points[c] = m*(n-1) - w.RowSum(c)
	}
	return ranking.SortByPointsDesc(points)
}

// LocalSearch improves r in place with best-improvement insertion moves until
// a local optimum of the Kemeny cost is reached, and returns r. Each pass is
// O(n^2); the insertion neighbourhood is the standard Kemeny local search
// (Ali & Meila 2012).
func LocalSearch(w *ranking.Precedence, r ranking.Ranking) ranking.Ranking {
	newSearchScratch(len(r)).descentDelta(context.Background(), w, r)
	return r
}

// Options tunes the heuristic solvers.
type Options struct {
	// Seed drives all randomised components; a fixed seed gives
	// reproducible results.
	Seed int64
	// Perturbations is the number of independent perturbed restarts applied
	// after the first local optimum (default 8; negative disables restarts).
	// Each restart perturbs the seed local optimum — not a shared incumbent —
	// which is what makes restarts schedulable in any order on any worker
	// count.
	Perturbations int
	// Strength is the number of random insertion moves per perturbation
	// (default 4).
	Strength int
	// Workers bounds the restart worker pool: the Perturbations restarts are
	// independent given their per-restart RNGs and run concurrently on up to
	// this many goroutines. 0 auto-sizes to GOMAXPROCS; 1 runs restarts
	// sequentially. The result is bitwise identical for every value — same
	// invariant as ranking.NewPrecedenceWorkers.
	Workers int
	// Warm, when non-nil, seeds the search from this ranking instead of the
	// Borda consensus — the streaming-profile warm start: after an O(n²)
	// profile mutation the previous consensus is already near-optimal, so
	// descending from it converges in far fewer passes than re-deriving a
	// cold seed. The ranking must be a valid permutation over the matrix's
	// candidates (engines ignore a length mismatch and fall back to the cold
	// seed); it is cloned before any mutation. Warm-started results are
	// deterministic per (input, Warm, options) and bitwise identical for
	// every Workers value, but NOT guaranteed identical to a cold solve —
	// the two explore from different local optima.
	Warm ranking.Ranking
}

func (o Options) withDefaults() Options {
	if o.Perturbations == 0 {
		o.Perturbations = 8
	}
	if o.Strength == 0 {
		o.Strength = 4
	}
	return o
}

// Heuristic returns a high-quality Kemeny consensus: Borda seed, local
// search, then Perturbations independent perturbed restarts from that local
// optimum, keeping the best ranking seen. On profiles with a transitive
// pairwise majority (e.g. Mallows data with theta >= 0.2) it recovers the
// exact optimum (the majority order is the unique local optimum of the
// insertion neighbourhood there).
//
// The cost is tracked incrementally across the whole run — one full
// KemenyCost evaluation of the Borda seed, then only O(move) deltas from the
// perturbation and search moves. Restarts derive their RNGs from
// (Options.Seed, restart index) and run on an Options.Workers pool
// (restarts.go); the result is bitwise identical for every worker count.
func Heuristic(w *ranking.Precedence, opts Options) ranking.Ranking {
	return HeuristicCtx(context.Background(), w, opts)
}

// HeuristicCtx is Heuristic with cooperative cancellation: when ctx is done
// the search stops at the next pass/restart boundary and returns the best
// ranking found so far — at minimum the Borda seed, always a valid
// permutation, never nil. A never-cancelled ctx yields output bitwise
// identical to Heuristic for every worker count; a cancelled run's result
// depends on how far the restarts got, so it is best-effort, not
// deterministic.
func HeuristicCtx(ctx context.Context, w *ranking.Precedence, opts Options) ranking.Ranking {
	opts = opts.withDefaults()
	endSeed := obs.StartSpan(ctx, "kemeny_seed_descent")
	seed := WarmOrBordaSeed(w, opts)
	seedCost := w.KemenyCost(seed) + newSearchScratch(len(seed)).descentDelta(ctx, w, seed)
	endSeed()
	best, _ := restartSearch(ctx, w, nil, seed, seedCost, opts)
	return best
}

// WarmOrBordaSeed resolves a search's starting ranking: a clone of
// Options.Warm when one is usable, otherwise the Borda consensus. A warm
// ranking of the wrong length (a stale consensus over a different candidate
// set) silently falls back to cold rather than corrupting the search.
func WarmOrBordaSeed(w *ranking.Precedence, opts Options) ranking.Ranking {
	if len(opts.Warm) == w.N() {
		return opts.Warm.Clone()
	}
	return BordaFromPrecedence(w)
}

// ConstrainedLocalSearch minimises Kemeny cost over rankings satisfying cons
// using best-improvement insertion moves that preserve feasibility. start
// must already satisfy cons (repair it with Make-MR-Fair first); the function
// panics otherwise, because silently optimising from an infeasible point
// would return garbage. The result is feasible and no worse than start.
//
// This is the single deterministic descent; ConstrainedSearch adds sharded
// perturbed restarts on top of it.
func ConstrainedLocalSearch(w *ranking.Precedence, cons []Constraint, start ranking.Ranking) ranking.Ranking {
	if !Feasible(start, cons) {
		panic("kemeny: ConstrainedLocalSearch start ranking violates constraints")
	}
	r := start.Clone()
	sc := newSearchScratch(len(r))
	sc.syncAuditor(cons, r)
	sc.descentDelta(context.Background(), w, r)
	return r
}

// ConstrainedSearch is the large-n Fair-Kemeny engine: the
// ConstrainedLocalSearch descent from start, followed by opts.Perturbations
// independent restarts that each apply feasibility-preserving random
// insertion moves and descend again, sharded across opts.Workers goroutines
// (restarts.go). start must satisfy cons (panics otherwise). The result is
// feasible, no worse than start, and bitwise identical for every worker
// count.
func ConstrainedSearch(w *ranking.Precedence, cons []Constraint, start ranking.Ranking, opts Options) ranking.Ranking {
	return ConstrainedSearchCtx(context.Background(), w, cons, start, opts)
}

// ConstrainedSearchCtx is ConstrainedSearch with cooperative cancellation:
// when ctx is done the engine stops at the next pass/restart boundary and
// returns the best feasible ranking found so far — at minimum the (possibly
// partially descended) start clone, which stays feasible because every
// accepted move preserves feasibility. Never nil. A never-cancelled ctx
// yields output bitwise identical to ConstrainedSearch.
func ConstrainedSearchCtx(ctx context.Context, w *ranking.Precedence, cons []Constraint, start ranking.Ranking, opts Options) ranking.Ranking {
	if !Feasible(start, cons) {
		panic("kemeny: ConstrainedSearch start ranking violates constraints")
	}
	opts = opts.withDefaults()
	endSeed := obs.StartSpan(ctx, "kemeny_seed_descent")
	seed := start.Clone()
	// The seed descent is the one single-threaded stretch of the search, so
	// it alone shards its candidate scans across the restart pool's width;
	// restart descents keep sequential scans (the pool already owns that
	// parallelism).
	sc := newSearchScratch(len(seed))
	sc.scanWorkers = scanWorkers(opts.Workers)
	sc.syncAuditor(cons, seed)
	seedCost := w.KemenyCost(seed) + sc.descentDelta(ctx, w, seed)
	endSeed()
	best, _ := restartSearch(ctx, w, cons, seed, seedCost, opts)
	return best
}

// descentDelta runs the insertion descent on r in place until no element
// has an improving feasible move, and returns the total Kemeny-cost change.
// Each element in turn moves to its best feasible insertion target
// (bestMove) — best-improvement per element, so with no constraints it is
// the plain Kemeny local search. The scratch's auditor must already be
// synced to r (syncAuditor); a nil auditor means no constraints. Accepted
// moves update the trackers in O(span + groups · log n). Cancellation is
// checked between passes; an early exit leaves r feasible (every accepted
// move preserved feasibility) with the returned delta exact.
func (sc *searchScratch) descentDelta(ctx context.Context, w *ranking.Precedence, r ranking.Ranking) int {
	n := len(r)
	total := 0
	tr := obs.FromContext(ctx)
	for improved := true; improved && ctx.Err() == nil; {
		endPass := tr.StartSpan("kemeny_descent_pass")
		improved = false
		for i := 0; i < n; i++ {
			to, delta := sc.bestMove(w, r, i)
			if delta == 0 {
				continue
			}
			if sc.aud != nil {
				sc.aud.applyMove(i, to)
			}
			r.MoveTo(i, to)
			total += delta
			improved = true
		}
		endPass()
	}
	return total
}

// bestMove returns the best feasible insertion target for the candidate at
// position i and its Kemeny-cost delta: among the targets that strictly
// lower the cost and keep every constraint satisfied, the one with the
// smallest delta, ties going to the earliest in the canonical scan order
// j = i-1..0 (upward), then j = i+1..n-1 (downward). With no such target it
// returns (i, 0).
//
// One sweep per direction does everything. The delta of moving to j is the
// exact-integer running sum of the precedence terms crossed (fillTerms), and
// only a target that would beat the best feasible one so far pays a
// feasibility probe (auditor.feasibleTo): O(groups) from per-group window
// histograms, with no binary searches and no candidate list. A probe that
// reports the direction blocked ends that sweep early. The ranking and
// trackers are fixed during the sweeps, so the result is exactly the first
// feasible candidate in (delta, scan order) — the order the historical
// sorted candidate list was tried in.
func (sc *searchScratch) bestMove(w *ranking.Precedence, r ranking.Ranking, i int) (to, delta int) {
	terms := sc.fillTerms(w, r, i)
	aud := sc.aud
	to = i
	d := 0
	if aud != nil {
		aud.startWindow(i, true)
	}
	for j := i - 1; j >= 0; j-- {
		d += terms[j]
		if d >= delta {
			continue
		}
		if aud == nil {
			to, delta = j, d
		} else if ok, blocked := aud.feasibleTo(j); ok {
			to, delta = j, d
		} else if blocked {
			break
		}
	}
	d = 0
	if aud != nil {
		aud.startWindow(i, false)
	}
	for j := i + 1; j < len(r); j++ {
		d -= terms[j]
		if d >= delta {
			continue
		}
		if aud == nil {
			to, delta = j, d
		} else if ok, blocked := aud.feasibleTo(j); ok {
			to, delta = j, d
		} else if blocked {
			break
		}
	}
	return to, delta
}

// shardMinScan is the scan length n at which fillTerms fans the
// per-position precedence lookups out across the scratch's worker pool;
// below it the goroutine handoff costs more than the lookups. It is a
// variable only so determinism tests can force sharding on small instances.
var shardMinScan = 2048

// fillTerms fills the scratch's term buffer for the candidate c at position
// i: terms[k] = W[c][r[k]] - W[r[k]][c] (Precedence.Margin), the cost change
// of c overtaking r[k] (its negation is the change of r[k] overtaking c).
// These lookups — scattered reads across row c of an O(n^2) matrix — are the
// expensive part of a scan, so they shard across sc.scanWorkers contiguous
// segments when n >= shardMinScan. Every term is an exact integer, so
// bestMove's sweeps see the same values for every worker count. The
// returned slice aliases the scratch and is valid until the next call.
func (sc *searchScratch) fillTerms(w *ranking.Precedence, r ranking.Ranking, i int) []int {
	n := len(r)
	terms := sc.terms[:n]
	c := r[i]
	if workers := sc.scanWorkers; workers > 1 && n >= shardMinScan {
		// Only this branch builds a closure, so the sequential scans of
		// restart descents stay allocation-free.
		var wg sync.WaitGroup
		for s := 0; s < workers; s++ {
			lo, hi := s*n/workers, (s+1)*n/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				fillTermRange(terms[lo:hi], w, r[lo:hi], c)
			}()
		}
		wg.Wait()
	} else {
		fillTermRange(terms, w, r, c)
	}
	return terms
}

// fillTermRange sets terms[k] = W[c][ys[k]] - W[ys[k]][c].
func fillTermRange(terms []int, w *ranking.Precedence, ys ranking.Ranking, c int) {
	for k, y := range ys {
		terms[k] = w.Margin(c, y)
	}
}
