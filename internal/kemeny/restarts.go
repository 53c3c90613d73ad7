package kemeny

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
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

// searchScratch is one worker's reusable working set: the ranking it
// descends (cur), the descent's incremental fairness auditor and sweep
// bounds, plus — for restart workers — the restart RNG (re-seeded per
// restart; math/rand's generator state is ~5KB, too big to churn per
// restart). An Incumbent's scratch holds the ranking it was handed; a
// restart worker allocates cur, up, dn and rng lazily on its first restart
// and overwrites them — with the auditor reset, not reallocated — per
// restart. All of it stays cache-resident across every restart the worker
// runs, so steady-state restarts allocate only when they actually improve on
// the seed (TestRestartAllocFree).
type searchScratch struct {
	cur ranking.Ranking
	aud *auditor
	// up[c] and dn[c] are candidate c's inversion mass in the synced
	// ranking (ranking.Precedence.InversionMass): the sums of the negative
	// terms c's upward and downward sweeps would read, bestMove's bound.
	// move keeps them current.
	up, dn []int
	rng    *rand.Rand
}

// sync points a fresh scratch at ranking r under cons: the auditor
// (syncAuditor) and the sweep bounds, counted in one pair sweep. It returns
// r's Kemeny cost, which that sweep reads anyway. Restart workers do not
// sync; they copy a synced seed scratch (runRestart).
func (sc *searchScratch) sync(w *ranking.Precedence, cons []Constraint, r ranking.Ranking) int {
	sc.syncAuditor(cons, r)
	sc.up, sc.dn = make([]int, len(r)), make([]int, len(r))
	return w.InversionMass(r, sc.up, sc.dn)
}

// move applies r.MoveTo(from, to) together with its bookkeeping: the
// auditor's trackers and the sweep bounds, O(span + groups · log n), and
// returns the move's exact Kemeny-cost change. Every accepted move —
// descent, perturbation and repair swap alike — goes through it, so the
// bounds can never fall out of step with r.
func (sc *searchScratch) move(w *ranking.Precedence, r ranking.Ranking, from, to int) int {
	if sc.aud != nil {
		sc.aud.applyMove(from, to)
	}
	delta := w.MoveInversionMass(r, sc.up, sc.dn, from, to)
	r.MoveTo(from, to)
	return delta
}

// runRestart executes restart idx from the seed incumbent — its ranking and
// bounds, copied in O(n) — and returns the restart's result as a new
// Incumbent (clones of its ranking and bounds, with its exact cost) when it
// strictly beats the seed, and nil otherwise: the common case allocates
// nothing. An empty constraint set (nil or zero-length alike) leaves the
// auditor nil, so every move is feasible.
func (sc *searchScratch) runRestart(ctx context.Context, w *ranking.Precedence, cons []Constraint, seed *Incumbent, opts Options, idx int) *Incumbent {
	defer obs.StartSpan(ctx, "kemeny_restart")()
	if sc.cur == nil {
		n := len(seed.sc.cur)
		sc.cur = make(ranking.Ranking, n)
		sc.up, sc.dn = make([]int, n), make([]int, n)
		sc.rng = rand.New(rand.NewSource(0))
	}
	// Re-seeding the scratch generator draws the identical stream a fresh
	// rand.New(rand.NewSource(seed)) would.
	sc.rng.Seed(restartSeed(opts.Seed, idx, len(cons) > 0))
	copy(sc.cur, seed.sc.cur)
	copy(sc.up, seed.sc.up)
	copy(sc.dn, seed.sc.dn)
	sc.syncAuditor(cons, sc.cur)
	cost := seed.cost + sc.perturbFeasibleDelta(w, sc.cur, opts.Strength, sc.rng)
	cost += sc.descentDelta(ctx, w, sc.cur)
	if cost >= seed.cost {
		return nil
	}
	best := &searchScratch{cur: sc.cur.Clone(), up: slices.Clone(sc.up), dn: slices.Clone(sc.dn)}
	return &Incumbent{sc: best, cost: cost}
}

// restartSearch runs opts.Perturbations independent perturbed restarts from
// the seed incumbent (already descended to a local optimum under cons) on a
// pool of restartWorkers workers, the caller's goroutine among them, and
// returns the best incumbent seen: seed itself, or the restart that beat it
// by the most. Every restart is scored against seed's cost; the workers only
// read seed. An empty constraint set selects the unconstrained engine. Ties
// — including every restart that fails to improve — resolve to the seed
// first and then to the lowest restart index, independent of schedule.
//
// Cancellation is cooperative: once ctx is done no further restart starts
// (workers stop claiming indices), the in-flight ones finish their current
// descent pass, and the merge below still returns the best completed result —
// at minimum the seed, never nil. With a never-cancelled ctx the output is
// bitwise identical to the uncancelled engine for every worker count.
func restartSearch(ctx context.Context, w *ranking.Precedence, cons []Constraint, seed *Incumbent, opts Options) *Incumbent {
	restarts := opts.Perturbations
	if restarts <= 0 || len(seed.sc.cur) < 2 || ctx.Err() != nil {
		return seed
	}
	improved := make([]*Incumbent, restarts)
	var next atomic.Int64
	claim := func() {
		sc := new(searchScratch)
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= restarts {
				return
			}
			improved[i] = sc.runRestart(ctx, w, cons, seed, opts, i)
		}
	}
	// The caller's goroutine is worker 0, so a one-worker search (the
	// serving default) starts no goroutine.
	var wg sync.WaitGroup
	for k := 1; k < restartWorkers(opts.Workers, restarts); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
	best := seed
	for _, in := range improved {
		if in != nil && in.cost < best.cost {
			best = in
		}
	}
	return best
}

// perturbFeasibleDelta applies up to strength random insertion moves to r,
// keeping only those that preserve feasibility (infeasible proposals still
// consume their draws), and returns the total Kemeny-cost change. Proposals
// are audited through the scratch's auditor without mutating r — the
// incremental prediction is bitwise identical to the historical move /
// Feasible / undo cycle — and accepted moves go through move. A nil auditor
// means no constraints: every move is feasible, so it is the plain
// perturbation kernel too — same draws, same moves. The scratch must be
// synced to r.
func (sc *searchScratch) perturbFeasibleDelta(w *ranking.Precedence, r ranking.Ranking, strength int, rng *rand.Rand) int {
	aud := sc.aud
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
		delta += sc.move(w, r, i, j)
	}
	return delta
}
