// Package kemeny provides exact and heuristic optimizers for the Kemeny rank
// aggregation problem, with optional MANI-Rank fairness constraints. It is
// this reproduction's substitute for the IBM CPLEX integer-program solver the
// paper uses (see DESIGN.md, Substitutions):
//
//   - BranchAndBound: depth-first search over prefixes with an admissible
//     pairwise lower bound, incumbent pruning, and — when constraints are
//     given — fairness-feasibility pruning. Exact; practical for small and
//     medium n, or larger n with strong consensus.
//   - Heuristic / HeuristicSearch / LocalSearch: Borda-seeded iterated local
//     search with the insertion neighbourhood, the standard high-quality
//     Kemeny heuristic, used at experiment scale (n = 90..500+).
//   - ConstrainedSearch / ConstrainedSearchFrom: local search restricted to
//     rankings satisfying fairness constraints, the large-n Fair-Kemeny
//     engine.
//
// Each search has one context-taking entry (BranchAndBound, HeuristicSearch,
// ConstrainedSearchFrom) for cooperative cancellation: when the context is
// done mid-search the engine returns the best ranking found so far — never
// nil, and for constrained engines always a feasible one — which is how the
// serving layer turns request deadlines into best-so-far answers. A
// never-cancelled context changes nothing. Heuristic and ConstrainedSearch
// are those entries with context.Background(). All engines consume a
// precomputed ranking.Precedence, so they compose with the serving layer's
// shared matrix tier.
package kemeny

import (
	"context"

	"manirank/internal/attribute"
	"manirank/internal/fairness"
	"manirank/internal/ranking"
)

// Constraint bounds the FPR spread (ARP, paper Def. 5) of one attribute by
// Delta. Passing a table's protected attributes plus its Intersection()
// pseudo-attribute expresses full MANI-Rank fairness (paper Def. 7).
type Constraint struct {
	Attr  *attribute.Attribute
	Delta float64
}

// Feasible reports whether ranking r satisfies every constraint.
func Feasible(r ranking.Ranking, cons []Constraint) bool {
	for _, c := range cons {
		if fairness.ARP(r, c.Attr) > c.Delta+fairness.Eps {
			return false
		}
	}
	return true
}

// Result is the outcome of an exact search.
type Result struct {
	// Ranking is the best ranking found (nil when no feasible ranking was
	// encountered within the node budget).
	Ranking ranking.Ranking
	// Cost is the Kemeny cost of Ranking against the precedence matrix.
	Cost int
	// Optimal is true when the search ran to completion, proving optimality.
	Optimal bool
	// Nodes is the number of search nodes expanded.
	Nodes int64
}

// bbState carries the mutable search state of BranchAndBound.
type bbState struct {
	n        int
	w        *ranking.Precedence
	cons     []consState
	prefix   []int
	placed   []bool
	unplaced int

	costSoFar   int
	costToPlace []int // costToPlace[x] = sum over unplaced y != x of W[x][y]
	remMin      int   // admissible bound on cost among unplaced pairs

	best     ranking.Ranking
	bestCost int
	haveBest bool

	nodes    int64
	maxNodes int64
	aborted  bool
	ctx      context.Context // polled every ctxPollMask+1 nodes
}

// ctxPollMask throttles context polls in the branch-and-bound hot loop: the
// deadline is checked once per 4096 expanded nodes, cheap against the O(n)
// work each node performs.
const ctxPollMask = 1<<12 - 1

// consState tracks one fairness constraint incrementally during search.
type consState struct {
	of      []int // candidate -> group value
	delta   float64
	groups  int
	wins    []int // mixed pairs won so far by each group
	decided []int // mixed pairs already decided for each group
	omegaM  []int // total mixed pairs per group
	cntUn   []int // unplaced members per group
}

// BranchAndBound searches for the minimum-cost ranking subject to cons (pass
// nil for plain Kemeny). incumbent, when non-nil, seeds the upper bound; for
// constrained searches it should be feasible (e.g. a Make-MR-Fair repaired
// ranking) so pruning starts tight. maxNodes bounds the search; when
// exceeded, the best ranking found so far is returned with Optimal=false.
// Pass maxNodes <= 0 for an unbounded (always optimal) search. Cancellation
// is cooperative: when ctx is done the search aborts (polled every few
// thousand nodes) and returns the best ranking found so far with
// Optimal=false — exactly the node-budget exhaustion behaviour.
func BranchAndBound(ctx context.Context, w *ranking.Precedence, cons []Constraint, incumbent ranking.Ranking, maxNodes int64) Result {
	n := w.N()
	st := &bbState{
		ctx:         ctx,
		n:           n,
		w:           w,
		prefix:      make([]int, 0, n),
		placed:      make([]bool, n),
		unplaced:    n,
		costToPlace: make([]int, n),
		maxNodes:    maxNodes,
	}
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if y != x {
				st.costToPlace[x] += w.At(x, y)
			}
		}
	}
	st.remMin = w.LowerBound()
	for _, c := range cons {
		g := c.Attr.DomainSize()
		cs := consState{
			of:      c.Attr.Of,
			delta:   c.Delta,
			groups:  g,
			wins:    make([]int, g),
			decided: make([]int, g),
			omegaM:  make([]int, g),
			cntUn:   make([]int, g),
		}
		for _, v := range c.Attr.Of {
			cs.cntUn[v]++
		}
		for v := 0; v < g; v++ {
			cs.omegaM[v] = fairness.MixedPairs(cs.cntUn[v], n)
		}
		st.cons = append(st.cons, cs)
	}
	if incumbent != nil && (len(cons) == 0 || Feasible(incumbent, cons)) {
		st.best = incumbent.Clone()
		st.bestCost = w.KemenyCost(incumbent)
		st.haveBest = true
	}
	st.dfs()
	res := Result{Nodes: st.nodes, Optimal: !st.aborted}
	if st.haveBest {
		res.Ranking = st.best
		res.Cost = st.bestCost
	}
	return res
}

func (st *bbState) dfs() {
	if st.aborted {
		return
	}
	if st.maxNodes > 0 && st.nodes >= st.maxNodes {
		st.aborted = true
		return
	}
	if st.nodes&ctxPollMask == 0 && st.ctx.Err() != nil {
		st.aborted = true
		return
	}
	st.nodes++
	if st.unplaced == 0 {
		// Fairness feasibility was maintained incrementally; at a leaf the
		// bounds are exact, so reaching here means the ranking is feasible.
		if !st.haveBest || st.costSoFar < st.bestCost {
			st.best = append(ranking.Ranking(nil), st.prefix...)
			st.bestCost = st.costSoFar
			st.haveBest = true
		}
		return
	}
	// Order children by immediate placement cost: cheap extensions first
	// find strong incumbents early.
	order := make([]int, 0, st.unplaced)
	for x := 0; x < st.n; x++ {
		if !st.placed[x] {
			order = append(order, x)
		}
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && st.costToPlace[order[j]] < st.costToPlace[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, x := range order {
		if st.haveBest && st.costSoFar+st.costToPlace[x]+st.remMinAfter(x) >= st.bestCost {
			continue
		}
		st.place(x)
		if st.fairFeasible() {
			st.dfs()
		}
		st.unplace(x)
		if st.aborted {
			return
		}
	}
}

// remMinAfter returns the admissible remaining-pairs bound that would hold
// after placing x, without mutating state.
func (st *bbState) remMinAfter(x int) int {
	rm := st.remMin
	for y := 0; y < st.n; y++ {
		if y != x && !st.placed[y] {
			rm -= minInt(st.w.At(x, y), st.w.At(y, x))
		}
	}
	return rm
}

func (st *bbState) place(x int) {
	st.costSoFar += st.costToPlace[x]
	st.placed[x] = true
	st.prefix = append(st.prefix, x)
	for y := 0; y < st.n; y++ {
		if !st.placed[y] {
			st.costToPlace[y] -= st.w.At(y, x)
			st.remMin -= minInt(st.w.At(x, y), st.w.At(y, x))
		}
	}
	for k := range st.cons {
		cs := &st.cons[k]
		v := cs.of[x]
		mixedUnplaced := (st.unplaced - 1) - (cs.cntUn[v] - 1)
		cs.wins[v] += mixedUnplaced
		cs.decided[v] += mixedUnplaced
		for u := 0; u < cs.groups; u++ {
			if u != v {
				cs.decided[u] += cs.cntUn[u]
			}
		}
		cs.cntUn[v]--
	}
	st.unplaced--
}

func (st *bbState) unplace(x int) {
	st.unplaced++
	for k := range st.cons {
		cs := &st.cons[k]
		v := cs.of[x]
		cs.cntUn[v]++
		mixedUnplaced := (st.unplaced - 1) - (cs.cntUn[v] - 1)
		cs.wins[v] -= mixedUnplaced
		cs.decided[v] -= mixedUnplaced
		for u := 0; u < cs.groups; u++ {
			if u != v {
				cs.decided[u] -= cs.cntUn[u]
			}
		}
	}
	st.prefix = st.prefix[:len(st.prefix)-1]
	st.placed[x] = false
	for y := 0; y < st.n; y++ {
		if y != x && !st.placed[y] {
			st.costToPlace[y] += st.w.At(y, x)
			st.remMin += minInt(st.w.At(x, y), st.w.At(y, x))
		}
	}
	st.costSoFar -= st.costToPlace[x]
}

// fairFeasible reports whether every constraint can still be satisfied: the
// final FPR of group v necessarily lies in
// [wins/omegaM, (wins + omegaM - decided)/omegaM], so a constraint is dead
// once max-of-minFPR minus min-of-maxFPR exceeds Delta.
func (st *bbState) fairFeasible() bool {
	for k := range st.cons {
		cs := &st.cons[k]
		maxMin, minMax := -1.0, 2.0
		for v := 0; v < cs.groups; v++ {
			var lo, hi float64
			if cs.omegaM[v] == 0 {
				lo, hi = 0.5, 0.5
			} else {
				om := float64(cs.omegaM[v])
				lo = float64(cs.wins[v]) / om
				hi = float64(cs.wins[v]+cs.omegaM[v]-cs.decided[v]) / om
			}
			if lo > maxMin {
				maxMin = lo
			}
			if hi < minMax {
				minMax = hi
			}
		}
		if maxMin-minMax > cs.delta+fairness.Eps {
			return false
		}
	}
	return true
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
