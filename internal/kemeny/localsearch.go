package kemeny

import (
	"context"

	"manirank/internal/obs"
	"manirank/internal/ranking"
)

// LocalSearch improves r in place with best-improvement insertion moves until
// a local optimum of the Kemeny cost is reached, and returns r. Each pass is
// O(n^2); the insertion neighbourhood is the standard Kemeny local search
// (Ali & Meila 2012).
func LocalSearch(w *ranking.Precedence, r ranking.Ranking) ranking.Ranking {
	Sync(w, r).descend(context.Background(), w, nil)
	return r
}

// Options tunes every Kemeny engine: the exact branch-and-bound's cut-over
// and node budget, and the large-n iterated local search. It is the one
// solver-options type behind manirank's SolveOptions; the zero value is the
// package default (see WithDefaults).
type Options struct {
	// ExactThreshold: callers choosing between the engines run the exact
	// branch-and-bound when n <= this value (default 12) and the iterated
	// local search above it — see DESIGN.md (CPLEX substitution).
	ExactThreshold int
	// MaxNodes bounds the exact search (default 20e6 nodes); on exhaustion
	// the best ranking found is returned.
	MaxNodes int64
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
	// candidates (engines ignore any other ranking and fall back to the cold
	// seed); it is cloned before any mutation. Warm-started results are
	// deterministic per (input, Warm, options) and bitwise identical for
	// every Workers value, but NOT guaranteed identical to a cold solve —
	// the two explore from different local optima.
	Warm ranking.Ranking
}

// WithDefaults fills the zero fields of o with the package defaults:
// ExactThreshold 12, MaxNodes 20e6, Perturbations 8, Strength 4. Seed,
// Workers and Warm have meaningful zero values and are left untouched.
func (o Options) WithDefaults() Options {
	if o.ExactThreshold == 0 {
		o.ExactThreshold = 12
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 20_000_000
	}
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
// The cost is tracked incrementally: the seed's cost comes from the pair
// sweep that sets up the descent's bounds, then only O(move) deltas from the
// descent, perturbation and search moves. Restarts derive their RNGs from
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
	return HeuristicSearch(ctx, w, opts).Ranking()
}

// HeuristicSearch is HeuristicCtx returning the whole search state: the
// best ranking with its exact Kemeny cost and its synced sweep bounds, ready
// for a repair (Incumbent.Swap) and a constrained descent
// (ConstrainedSearchFrom) that then pay no pair sweep of their own.
func HeuristicSearch(ctx context.Context, w *ranking.Precedence, opts Options) *Incumbent {
	opts = opts.WithDefaults()
	endSeed := obs.StartSpan(ctx, "kemeny_seed_descent")
	in := Sync(w, WarmOrBordaSeed(w, opts))
	in.descend(ctx, w, nil)
	endSeed()
	return restartSearch(ctx, w, nil, in, opts)
}

// WarmOrBordaSeed resolves a search's starting ranking: a clone of
// Options.Warm when it is a permutation of the matrix's candidates,
// otherwise the Borda consensus. A warm ranking of the wrong length (a stale
// consensus over a different candidate set), with a duplicate or with an
// out-of-range id silently falls back to cold rather than corrupting the
// search.
func WarmOrBordaSeed(w *ranking.Precedence, opts Options) ranking.Ranking {
	if UsableWarm(w, opts.Warm) {
		return opts.Warm.Clone()
	}
	return w.Borda()
}

// UsableWarm reports whether warm can seed a search over w: it must be a
// permutation of w's N() candidates. Anything else — a nil ranking, a stale
// one over a different candidate set, a duplicate or an out-of-range id —
// is ignored by the engines in favour of a cold seed.
func UsableWarm(w *ranking.Precedence, warm ranking.Ranking) bool {
	return len(warm) == w.N() && warm.IsValid()
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
	in := Sync(w, start.Clone())
	in.descend(context.Background(), w, cons)
	return in.Ranking()
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
	return ConstrainedSearchFrom(ctx, w, cons, Sync(w, start.Clone()), opts).Ranking()
}

// ConstrainedSearchFrom is ConstrainedSearchCtx from an Incumbent, whose
// bounds and cost spare the descent the pair sweep that syncing a bare
// ranking costs. It takes in over: the descent moves its ranking in place,
// and the returned Incumbent — in itself, or a restart that beat it — holds
// the result with its exact cost. in must satisfy cons (panics otherwise).
func ConstrainedSearchFrom(ctx context.Context, w *ranking.Precedence, cons []Constraint, in *Incumbent, opts Options) *Incumbent {
	if !Feasible(in.Ranking(), cons) {
		panic("kemeny: ConstrainedSearch start ranking violates constraints")
	}
	opts = opts.WithDefaults()
	endSeed := obs.StartSpan(ctx, "kemeny_seed_descent")
	in.descend(ctx, w, cons)
	endSeed()
	return restartSearch(ctx, w, cons, in, opts)
}

// Incumbent is the search state one phase of a solve hands to the next: a
// ranking, the insertion descent's sweep bounds synced to it, and its exact
// Kemeny cost. Fair-Kemeny's unconstrained search, its Make-MR-Fair repair
// (through Swap) and its constrained descent all move one Incumbent, so a
// cold solve pays a single pair sweep (Sync), and the cost it reports is the
// one the moves tracked.
type Incumbent struct {
	sc   *searchScratch // cur is the ranking; up and dn are synced to it
	cost int
}

// Sync makes r an Incumbent, taking r over rather than copying it: one pair
// sweep (ranking.Precedence.InversionMass) counts its bounds and its cost.
func Sync(w *ranking.Precedence, r ranking.Ranking) *Incumbent {
	sc := &searchScratch{cur: r}
	return &Incumbent{sc: sc, cost: sc.sync(w, nil, r)}
}

// Ranking returns the incumbent's ranking (shared storage).
func (in *Incumbent) Ranking() ranking.Ranking { return in.sc.cur }

// Cost returns the incumbent ranking's exact Kemeny cost against w.
func (in *Incumbent) Cost() int { return in.cost }

// Swap exchanges the candidates at positions i < j of the incumbent's
// ranking as the two insertion moves i → j and j−1 → i, keeping the bounds
// and the cost exact in O(j−i).
func (in *Incumbent) Swap(w *ranking.Precedence, i, j int) {
	in.cost += in.sc.move(w, in.sc.cur, i, j)
	in.cost += in.sc.move(w, in.sc.cur, j-1, i)
}

// descend runs the insertion descent under cons on the incumbent's ranking
// in place, keeping its cost exact. A descent stopped by ctx leaves it
// feasible, its cost still exact.
func (in *Incumbent) descend(ctx context.Context, w *ranking.Precedence, cons []Constraint) {
	in.sc.syncAuditor(cons, in.sc.cur)
	in.cost += in.sc.descentDelta(ctx, w, in.sc.cur)
}

// descentDelta runs the insertion descent on r in place until no element
// has an improving feasible move, and returns the total Kemeny-cost change.
// Each element in turn moves to its best feasible insertion target
// (bestMove) — best-improvement per element, so with no constraints it is
// the plain Kemeny local search. The scratch must already be synced to r
// (sync); a nil auditor means no constraints. Accepted moves go through
// move, which updates the trackers and the sweep bounds in
// O(span + groups · log n). Cancellation is
// checked between passes; an early exit leaves r feasible (every accepted
// move preserved feasibility) with the returned delta exact.
//
// The matrix's cell width is picked once here: the passes run generic
// over it (descentPasses), so no per-candidate call dispatches on it.
func (sc *searchScratch) descentDelta(ctx context.Context, w *ranking.Precedence, r ranking.Ranking) int {
	w16, w32 := w.Flat()
	if w16 != nil {
		return descentPasses(ctx, sc, w, w16, r)
	}
	return descentPasses(ctx, sc, w, w32, r)
}

// descentPasses is descentDelta over cells, w's row-major cells.
func descentPasses[T ranking.Cell](ctx context.Context, sc *searchScratch, w *ranking.Precedence, cells []T, r ranking.Ranking) int {
	n, m := len(r), w.Rankings()
	total := 0
	tr := obs.FromContext(ctx)
	for improved := true; improved && ctx.Err() == nil; {
		endPass := tr.StartSpan("kemeny_descent_pass")
		improved = false
		for i := 0; i < n; i++ {
			c := r[i]
			to, delta := bestMove(sc, cells[c*n:c*n+n], m, r, i)
			if delta == 0 {
				continue
			}
			sc.move(w, r, i, to)
			total += delta
			improved = true
		}
		endPass()
	}
	return total
}

// bestMove returns the best feasible insertion target for the candidate c
// at position i, whose matrix row is row, and its Kemeny-cost delta: among
// the targets that strictly lower the cost and keep every constraint
// satisfied, the one with the smallest delta, ties going to the earliest in
// the canonical scan order j = i-1..0 (upward), then j = i+1..n-1
// (downward). With no such target it returns (i, 0).
//
// One sweep per direction does everything. The delta of moving to j is the
// exact-integer running sum of the precedence margins crossed, read inline
// from row c of the matrix, and only a target that would beat the best
// feasible one so far pays a feasibility probe (auditor.feasibleTo):
// O(groups) from per-group window histograms, with no binary searches and no
// candidate list. A probe that reports the direction blocked ends that sweep
// early. The ranking and trackers are fixed during the sweeps, so the result
// is exactly the first feasible candidate in (delta, scan order) — the order
// the historical sorted candidate list was tried in.
//
// A sweep also ends once no later target can win. rem starts as the
// candidate's inversion mass in that direction (sc.up or sc.dn: the sum of
// the negative terms the sweep will meet) and each negative term read is
// taken out of it, so every target not yet read has a delta of at least
// d + rem. A target is kept only when its delta is strictly below the best,
// so once d + rem >= delta none of them can be, and stopping there returns
// the same (to, delta). A candidate with no negative term in a direction
// skips that sweep outright.
//
// Both sweeps read only row c, at the matrix's cell width: each margin is
// Margin(c, b) = 2·W[c][b] − m.
func bestMove[T ranking.Cell](sc *searchScratch, row []T, m int, r ranking.Ranking, i int) (to, delta int) {
	aud := sc.aud
	c := r[i]
	to = i
	d, rem := 0, sc.up[c]
	if aud != nil {
		aud.startWindow(i, true)
	}
	for j := i - 1; j >= 0 && d+rem < delta; j-- {
		t := 2*int(row[r[j]]) - m
		d += t
		if t < 0 {
			rem -= t
		}
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
	d, rem = 0, sc.dn[c]
	if aud != nil {
		aud.startWindow(i, false)
	}
	for j := i + 1; j < len(r) && d+rem < delta; j++ {
		t := m - 2*int(row[r[j]])
		d += t
		if t < 0 {
			rem -= t
		}
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
