package ranking

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// DefaultWorkers is the worker-pool width used when precedence construction
// auto-sizes itself (NewPrecedence / worker count 0). Zero means
// runtime.GOMAXPROCS(0). CLIs set it once at startup from a -workers flag; it
// is not synchronised for concurrent mutation.
var DefaultWorkers int

// Precedence is the precedence matrix W of a profile of base rankings
// (paper Def. 11): W[a][b] counts the base rankings in which b is ranked
// ABOVE a. Consequently, placing a above b in a consensus ranking incurs
// W[a][b] pairwise disagreements with the profile.
//
// The matrix is stored densely in row-major order as a flat int32 buffer —
// half the cache footprint of the int layout, which matters because every
// solver (Kemeny local search, branch and bound, Schulze, Copeland) streams
// over its rows. For every pair a != b, W[a][b] + W[b][a] == |R|.
type Precedence struct {
	n int
	m int // number of base rankings summarised
	w []int32
}

// NewPrecedence computes the precedence matrix of profile p, sharding the
// accumulation over a worker pool sized by DefaultWorkers when the profile is
// large enough to amortise the fork/merge cost. Each base ranking contributes
// one upper-triangle pass over its n(n-1)/2 pairs.
func NewPrecedence(p Profile) (*Precedence, error) {
	return NewPrecedenceWorkers(p, 0)
}

// NewPrecedenceWorkers is NewPrecedence with an explicit worker count.
// workers <= 0 auto-sizes the pool; workers == 1 forces the serial kernel.
// The result is bitwise identical for every worker count.
func NewPrecedenceWorkers(p Profile, workers int) (*Precedence, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return newPrecedenceUnchecked(p, workers), nil
}

// MustPrecedence is NewPrecedence for profiles already known to be valid;
// it panics on invalid input.
func MustPrecedence(p Profile) *Precedence {
	w, err := NewPrecedence(p)
	if err != nil {
		panic(err)
	}
	return w
}

func newPrecedenceUnchecked(p Profile, workers int) *Precedence {
	n := p.N()
	pr := &Precedence{n: n, m: len(p), w: make([]int32, n*n)}
	buildShards(pr.w, p, nil, n, sizeWorkers(workers, n, len(p)))
	return pr
}

// NewWeightedPrecedence computes a precedence matrix where ranking i
// contributes weights[i] (instead of 1) to each pairwise count. It backs the
// Kemeny-Weighted baseline. len(weights) must equal len(p).
func NewWeightedPrecedence(p Profile, weights []int) (*Precedence, error) {
	return NewWeightedPrecedenceWorkers(p, weights, 0)
}

// NewWeightedPrecedenceWorkers is NewWeightedPrecedence with an explicit
// worker count (see NewPrecedenceWorkers).
func NewWeightedPrecedenceWorkers(p Profile, weights []int, workers int) (*Precedence, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(weights) != len(p) {
		return nil, fmt.Errorf("ranking: %d weights for %d rankings", len(weights), len(p))
	}
	total := int64(0)
	for _, wt := range weights {
		if wt < 0 {
			return nil, fmt.Errorf("ranking: negative weight %d", wt)
		}
		if wt > math.MaxInt32 {
			return nil, fmt.Errorf("ranking: weight %d overflows the int32 cell size", wt)
		}
		total += int64(wt)
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("ranking: total weight %d overflows the int32 cell size", total)
	}
	n := p.N()
	pr := &Precedence{n: n, m: int(total), w: make([]int32, n*n)}
	buildShards(pr.w, p, weights, n, sizeWorkers(workers, n, len(p)))
	return pr, nil
}

// sizeWorkers resolves the construction worker count. An explicit request
// (> 0) is honoured as-is, clamped only to the ranking count — callers and
// tests asking for k workers get the k-way sharded path. Auto mode
// (requested <= 0) resolves DefaultWorkers / GOMAXPROCS and additionally
// keeps small profiles on the serial kernel: below ~2M pair ops per shard, a
// partial matrix per worker plus the final merge costs more than it saves.
func sizeWorkers(requested, n, m int) int {
	w := requested
	if w <= 0 {
		w = DefaultWorkers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		const minPairOpsPerShard = 1 << 21
		pairOps := int64(n) * int64(n-1) / 2 * int64(m)
		if lim := int(pairOps / minPairOpsPerShard); w > lim {
			w = lim
		}
	}
	if w > m {
		w = m
	}
	if w < 1 {
		w = 1
	}
	return w
}

// buildShards accumulates profile p (optionally weighted) into dst using the
// given number of workers. Worker 0 writes straight into dst; the others fill
// per-worker partial matrices that are summed into dst at the end. Integer
// addition commutes, so the result is identical for every worker count and
// schedule.
func buildShards(dst []int32, p Profile, weights []int, n, workers int) {
	if workers <= 1 {
		accumulateShard(dst, p, weights, n)
		return
	}
	partials := make([][]int32, workers)
	partials[0] = dst
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		lo, hi := shardBounds(len(p), workers, k)
		if k > 0 {
			partials[k] = make([]int32, n*n)
		}
		wg.Add(1)
		go func(buf []int32, lo, hi int) {
			defer wg.Done()
			var wts []int
			if weights != nil {
				wts = weights[lo:hi]
			}
			accumulateShard(buf, p[lo:hi], wts, n)
		}(partials[k], lo, hi)
	}
	wg.Wait()
	for k := 1; k < workers; k++ {
		part := partials[k]
		for i, v := range part {
			dst[i] += v
		}
	}
}

// shardBounds splits m items into `workers` near-equal contiguous chunks and
// returns chunk k's half-open range.
func shardBounds(m, workers, k int) (lo, hi int) {
	return m * k / workers, m * (k + 1) / workers
}

// accumulateShard adds each ranking's pairwise precedences into w. The kernel
// is the branch-free upper-triangle form: position i outranks position j for
// every i < j, and W[a][b] counts rankings placing b above a, so pair (i, j)
// increments exactly W[r[j]][r[i]] — half the iterations of the full n^2
// position-compare loop and no per-pair branch. For fixed j all writes land
// in row r[j], one cache-resident stripe of 4n bytes.
func accumulateShard(w []int32, p Profile, weights []int, n int) {
	for idx, r := range p {
		wt := int32(1)
		if weights != nil {
			wt = int32(weights[idx])
			if wt == 0 {
				continue
			}
		}
		for j := 1; j < n; j++ {
			row := w[r[j]*n : r[j]*n+n]
			for _, b := range r[:j] {
				row[b] += wt
			}
		}
	}
}

// Clone returns a deep copy of w. Mutating either copy (AddRanking /
// RemoveRanking) never affects the other — the copy-on-write primitive
// behind sharing one matrix between a cache tier and a mutable engine.
func (w *Precedence) Clone() *Precedence {
	out := &Precedence{n: w.n, m: w.m, w: make([]int32, len(w.w))}
	copy(out.w, w.w)
	return out
}

// AddRanking folds one more base ranking into w in O(n²) — the incremental
// alternative to rebuilding the whole matrix in O(n²·m). The result is
// bitwise identical to NewPrecedence over the extended profile (integer
// addition commutes, exactly the invariant the construction shards rely on).
func (w *Precedence) AddRanking(r Ranking) error {
	if len(r) != w.n {
		return fmt.Errorf("ranking: AddRanking got %d candidates, matrix has %d", len(r), w.n)
	}
	if err := r.Validate(); err != nil {
		return err
	}
	if w.m >= math.MaxInt32 {
		return fmt.Errorf("ranking: %d rankings overflow the int32 cell size", w.m+1)
	}
	patchRanking(w.w, r, w.n, 1)
	w.m++
	return nil
}

// RemoveRanking subtracts one base ranking's contribution from w in O(n²).
// The caller must pass a ranking the matrix actually aggregates (w does not
// hold the profile, so it cannot verify membership itself — removing a
// ranking never added leaves negative cells). Removing the exact rankings
// previously added, in any order, restores the matrix bitwise.
func (w *Precedence) RemoveRanking(r Ranking) error {
	if len(r) != w.n {
		return fmt.Errorf("ranking: RemoveRanking got %d candidates, matrix has %d", len(r), w.n)
	}
	if err := r.Validate(); err != nil {
		return err
	}
	if w.m == 0 {
		return fmt.Errorf("ranking: RemoveRanking on an empty matrix")
	}
	patchRanking(w.w, r, w.n, -1)
	w.m--
	return nil
}

// patchRanking applies one ranking's upper-triangle contribution to w with
// weight wt (±1) — the same kernel shape as accumulateShard, specialised to
// a single ranking.
func patchRanking(w []int32, r Ranking, n int, wt int32) {
	for j := 1; j < n; j++ {
		row := w[r[j]*n : r[j]*n+n]
		for _, b := range r[:j] {
			row[b] += wt
		}
	}
}

// N returns the number of candidates.
func (w *Precedence) N() int { return w.n }

// Cells returns the matrix's storage footprint in int32 cells (n²) — the
// admission cost a memory-bounded matrix cache charges for holding w.
func (w *Precedence) Cells() int64 { return int64(w.n) * int64(w.n) }

// Rankings returns the (weighted) number of base rankings summarised.
func (w *Precedence) Rankings() int { return w.m }

// At returns W[a][b]: how many base rankings place b above a, i.e. the
// disagreement cost of ordering a above b in the consensus.
func (w *Precedence) At(a, b int) int { return int(w.w[a*w.n+b]) }

// Margin returns W[a][b] - W[b][a]: the Kemeny-cost change of ordering a
// above b instead of b above a. By the pair invariant W[a][b] + W[b][a] = m
// it is 2·W[a][b] - m, one read from row a instead of a second, column-wise
// read from row b.
func (w *Precedence) Margin(a, b int) int { return 2*int(w.w[a*w.n+b]) - w.m }

// CostAbove is a readability alias for At: the number of profile
// disagreements incurred by ranking a above b.
func (w *Precedence) CostAbove(a, b int) int { return int(w.w[a*w.n+b]) }

// KemenyCost returns the total pairwise disagreement between ranking r and
// the profile summarised by w: sum over ordered pairs (a above b) of W[a][b].
// This equals sum_i KendallTau(r, R_i).
func (w *Precedence) KemenyCost(r Ranking) int {
	if len(r) != w.n {
		panic("ranking: KemenyCost ranking length mismatch")
	}
	cost := 0
	for i := 0; i < len(r); i++ {
		row := w.w[r[i]*w.n : r[i]*w.n+w.n]
		for _, b := range r[i+1:] {
			cost += int(row[b])
		}
	}
	return cost
}

// AdjacentSwapDelta returns, in O(1), the Kemeny-cost change of swapping the
// candidates at rank positions i and i+1 of r: the special case of MoveDelta
// for adjacent-transposition neighbourhoods, exposed so cost-tracking loops
// over swaps never pay an O(n^2) KemenyCost recomputation.
func (w *Precedence) AdjacentSwapDelta(r Ranking, i int) int {
	x, y := r[i], r[i+1]
	return int(w.w[y*w.n+x]) - int(w.w[x*w.n+y])
}

// MoveDelta returns, in O(|from-to|), the Kemeny-cost change of
// r.MoveTo(from, to): the moved candidate flips its pairwise order against
// exactly the candidates it crosses.
func (w *Precedence) MoveDelta(r Ranking, from, to int) int {
	c := r[from]
	crow := w.w[c*w.n : c*w.n+w.n]
	delta := 0
	if from < to {
		// c moves down past r[from+1..to]: (c above y) becomes (y above c).
		for _, y := range r[from+1 : to+1] {
			delta += int(w.w[y*w.n+c]) - int(crow[y])
		}
	} else {
		// c moves up past r[to..from-1]: (y above c) becomes (c above y).
		for _, y := range r[to:from] {
			delta += int(crow[y]) - int(w.w[y*w.n+c])
		}
	}
	return delta
}

// RowSum returns sum over b of W[a][b], the total disagreement candidate a
// would incur ranked above everyone else. Borda scores derive from row sums
// in one sequential pass per row.
func (w *Precedence) RowSum(a int) int {
	s := 0
	for _, v := range w.w[a*w.n : a*w.n+w.n] {
		s += int(v)
	}
	return s
}

// LowerBound returns an admissible lower bound on the Kemeny cost of any
// ranking: for each unordered pair the consensus must pay at least
// min(W[a][b], W[b][a]) disagreements.
func (w *Precedence) LowerBound() int {
	lb := 0
	for a := 0; a < w.n; a++ {
		for b := a + 1; b < w.n; b++ {
			ab, ba := w.w[a*w.n+b], w.w[b*w.n+a]
			if ab < ba {
				lb += int(ab)
			} else {
				lb += int(ba)
			}
		}
	}
	return lb
}

// MajorityPrefers reports whether strictly more base rankings place a above b
// than b above a.
func (w *Precedence) MajorityPrefers(a, b int) bool {
	return w.w[b*w.n+a] > w.w[a*w.n+b]
}

// CondorcetOrder returns a ranking ordering candidates by strict pairwise
// majority, if one exists (a total order where every candidate beats all
// candidates below it head-to-head). ok is false when no Condorcet order
// exists (majority cycles or ties).
func (w *Precedence) CondorcetOrder() (Ranking, bool) {
	n := w.n
	wins := make([]int, n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b && w.MajorityPrefers(a, b) {
				wins[a]++
			}
		}
	}
	r := SortByPointsDesc(wins)
	// A Condorcet order exists iff the win counts are exactly n-1, n-2, ..., 0.
	for i, c := range r {
		if wins[c] != n-1-i {
			return nil, false
		}
	}
	return r, true
}

// PDLoss returns the Pairwise Disagreement loss (paper Def. 9) of consensus
// ranking r against the profile summarised by w: the Kemeny cost divided by
// omega(X) * |R|, in [0, 1].
func (w *Precedence) PDLoss(r Ranking) float64 {
	if w.n < 2 || w.m == 0 {
		return 0
	}
	return float64(w.KemenyCost(r)) / (float64(TotalPairs(w.n)) * float64(w.m))
}

// PDLoss computes the Pairwise Disagreement loss of consensus r directly from
// a profile (paper Def. 9): sum of Kendall tau distances to every base
// ranking, normalised by omega(X)*|R|. It runs in O(|R| n log n) and matches
// Precedence.PDLoss.
func PDLoss(p Profile, r Ranking) float64 {
	if len(p) == 0 || len(r) < 2 {
		return 0
	}
	sum := 0
	for _, base := range p {
		sum += KendallTau(r, base)
	}
	return float64(sum) / (float64(TotalPairs(len(r))) * float64(len(p)))
}
