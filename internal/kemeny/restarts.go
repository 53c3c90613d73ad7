package kemeny

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"manirank/internal/obs"
	"manirank/internal/ranking"
)

// This file implements the sharded restart engine behind Heuristic and
// ConstrainedSearch: the iterated-local-search restarts are independent given
// per-restart RNGs, so they run on a bounded worker pool exactly like the
// experiment cells and the precedence shards (DESIGN.md, Hot paths). Restart
// i's outcome depends only on (w, cons, seed ranking, Options.Seed, i), and
// the merge scans restarts in index order, so the returned ranking is bitwise
// identical for every worker count and schedule.

// restartSeed derives restart i's private RNG seed from the run seed via the
// shared splitmix64 finaliser (same derivation scheme as the experiment
// harness's cell seeding). The constrained engine folds in a phase tag so
// Fair-Kemeny's unconstrained and constrained phases — which share one
// Options value — draw decorrelated perturbation streams. Each restart owns
// its randomness: no restart observes another's draws, which is what makes
// parallel schedules reproducible.
func restartSeed(seed int64, restart int, constrained bool) int64 {
	h := uint64(seed) ^ ranking.SplitMix64Init
	if constrained {
		h = ranking.SplitMix64(h, 'c')
	}
	return int64(ranking.SplitMix64(h, uint64(restart)+1))
}

// restartWorkers resolves the restart pool width: <= 0 auto-sizes to
// GOMAXPROCS, and the pool never exceeds the restart count.
func restartWorkers(requested, restarts int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > restarts {
		w = restarts
	}
	if w < 1 {
		w = 1
	}
	return w
}

// searchScratch is one worker's reusable working set: the descent's
// precedence-term buffer and its incremental fairness auditor, plus — for
// restart workers — the current-ranking buffer the restarts mutate and the
// restart RNG (re-seeded per restart; math/rand's generator state is ~5KB,
// too big to churn per restart). The descent-only callers
// (ConstrainedLocalSearch, the seed descents) never touch cur/rng, so those
// are initialised lazily on the first restart; the auditor is built on the
// first syncAuditor and reset — not reallocated — per restart. All of it
// stays cache-resident across every restart the worker runs, so
// steady-state restarts allocate only when they actually improve on the
// seed (TestRestartAllocFree).
type searchScratch struct {
	cur   ranking.Ranking
	terms []int
	aud   *auditor
	rng   *rand.Rand
	// scanWorkers > 1 shards fillTerms' precedence lookups; only the seed
	// descent sets it (restart workers keep 1 — the pool is the parallelism).
	scanWorkers int
}

// scanWorkers resolves Options.Workers for the seed descent's sharded
// candidate scan: <= 0 auto-sizes to GOMAXPROCS, like restartWorkers.
func scanWorkers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// newSearchScratch returns a scratch for rankings of length n.
func newSearchScratch(n int) *searchScratch {
	return &searchScratch{terms: make([]int, n)}
}

// runRestart executes restart idx from the shared seed ranking and returns
// the restart's final cost plus a clone of its ranking when it strictly beats
// the seed (nil otherwise — the common case allocates nothing). An empty
// constraint set (nil or zero-length alike) leaves the auditor nil, so every
// move is feasible.
func (sc *searchScratch) runRestart(ctx context.Context, w *ranking.Precedence, cons []Constraint, seed ranking.Ranking, seedCost int, opts Options, idx int) (int, ranking.Ranking) {
	defer obs.StartSpan(ctx, "kemeny_restart")()
	if sc.cur == nil {
		sc.cur = make(ranking.Ranking, len(seed))
		sc.rng = rand.New(rand.NewSource(0))
	}
	// Re-seeding the scratch generator draws the identical stream a fresh
	// rand.New(rand.NewSource(seed)) would.
	sc.rng.Seed(restartSeed(opts.Seed, idx, len(cons) > 0))
	copy(sc.cur, seed)
	sc.syncAuditor(cons, sc.cur)
	cost := seedCost + perturbFeasibleDelta(w, sc.aud, sc.cur, opts.Strength, sc.rng)
	cost += sc.descentDelta(ctx, w, sc.cur)
	if cost < seedCost {
		return cost, sc.cur.Clone()
	}
	return seedCost, nil
}

// restartSearch runs opts.Perturbations independent perturbed restarts from
// seed (already a local optimum with cost seedCost) on a pool of
// restartWorkers goroutines, and returns the best ranking and cost seen.
// An empty constraint set selects the unconstrained engine. Ties — including every
// restart that fails to improve — resolve to the seed first and then to the
// lowest restart index, independent of schedule.
//
// Cancellation is cooperative: once ctx is done no further restart starts
// (workers stop claiming indices), the in-flight ones finish their current
// descent pass, and the merge below still returns the best completed result —
// at minimum the seed, never a zero value. With a never-cancelled ctx the
// output is bitwise identical to the uncancelled engine for every worker
// count.
func restartSearch(ctx context.Context, w *ranking.Precedence, cons []Constraint, seed ranking.Ranking, seedCost int, opts Options) (ranking.Ranking, int) {
	restarts := opts.Perturbations
	if restarts <= 0 || len(seed) < 2 || ctx.Err() != nil {
		return seed, seedCost
	}
	costs := make([]int, restarts)
	improved := make([]ranking.Ranking, restarts)
	workers := restartWorkers(opts.Workers, restarts)
	if workers == 1 {
		sc := newSearchScratch(len(seed))
		for i := 0; i < restarts && ctx.Err() == nil; i++ {
			costs[i], improved[i] = sc.runRestart(ctx, w, cons, seed, seedCost, opts, i)
		}
	} else {
		next := int64(-1)
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := newSearchScratch(len(seed))
				for ctx.Err() == nil {
					i := int(atomic.AddInt64(&next, 1))
					if i >= restarts {
						return
					}
					costs[i], improved[i] = sc.runRestart(ctx, w, cons, seed, seedCost, opts, i)
				}
			}()
		}
		wg.Wait()
	}
	best, bestCost := seed, seedCost
	for i := 0; i < restarts; i++ {
		if improved[i] != nil && costs[i] < bestCost {
			best, bestCost = improved[i], costs[i]
		}
	}
	return best, bestCost
}

// perturbFeasibleDelta applies up to strength random insertion moves to r,
// keeping only those that preserve feasibility (infeasible proposals still
// consume their draws), and returns the total Kemeny-cost change. Proposals
// are audited through aud without mutating r — the incremental prediction is
// bitwise identical to the historical move / Feasible / undo cycle — and
// accepted moves update the trackers. A nil aud means no constraints: every
// move is feasible, so it is the plain perturbation kernel too — same draws,
// same moves.
func perturbFeasibleDelta(w *ranking.Precedence, aud *auditor, r ranking.Ranking, strength int, rng *rand.Rand) int {
	n := len(r)
	if n < 2 {
		return 0
	}
	delta := 0
	for s := 0; s < strength; s++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			continue
		}
		if aud != nil && !aud.feasibleMove(i, j) {
			continue
		}
		d := w.MoveDelta(r, i, j)
		if aud != nil {
			aud.applyMove(i, j)
		}
		r.MoveTo(i, j)
		delta += d
	}
	return delta
}
