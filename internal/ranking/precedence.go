package ranking

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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
// The matrix is stored densely in row-major order as one flat buffer of
// cells no wider than its counts need: uint16 while m ≤ 65535, int32 beyond
// (a cell never exceeds m). Every solver (Kemeny local search, branch and
// bound, Schulze, Copeland) streams over its rows, so the half-width cells
// halve the bytes each sweep reads. For every pair a != b,
// W[a][b] + W[b][a] == |R|.
//
// Each row's sum is kept beside the cells: RowSum(a) = Σ_r pos_r(a), the
// (weighted) count of candidates ranked above a, which every constructor and
// patch derives from positions in O(n) per ranking. The Borda seed of every
// Kemeny solve then costs a sort instead of an O(n²) pass.
type Precedence struct {
	n int
	m int // number of base rankings summarised
	// Exactly one of w16 and w32 holds the cells: w16 from a construction or
	// decode with m ≤ maxNarrow, w32 otherwise. AddRanking widens w16 to w32
	// when m passes maxNarrow; nothing narrows.
	w16  []uint16
	w32  []int32
	rows []int // rows[a] = Σ_b W[a][b]
}

// Cell is the constraint of the two cell widths. Each kernel over the cells
// has one generic body, instantiated once per width; a method picks the
// width once per call, never per cell.
type Cell interface{ ~uint16 | ~int32 }

// maxNarrow is the largest ranking count a uint16 matrix holds.
const maxNarrow = math.MaxUint16

// newSized allocates an n-candidate matrix for m rankings at the width m
// needs, with zero cells and row sums.
func newSized(n, m int) *Precedence {
	w := &Precedence{n: n, m: m, rows: make([]int, n)}
	if m <= maxNarrow {
		w.w16 = make([]uint16, n*n)
	} else {
		w.w32 = make([]int32, n*n)
	}
	return w
}

// Flat returns the cells at the matrix's width, row-major (W[a][b] at index
// a·N()+b): exactly one of the two slices is non-nil. It aliases the
// matrix, so a caller must not write to it. A hot loop outside this package
// calls Flat once and hands the slice to a kernel generic over Cell.
func (w *Precedence) Flat() ([]uint16, []int32) {
	return w.w16, w.w32
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
	return build(p, nil, len(p), workers)
}

// build accumulates profile p (weighted when weights is non-nil, m being
// its total weight) into a matrix of m's width, cells and row sums.
func build(p Profile, weights []int, m, workers int) *Precedence {
	n := p.N()
	pr := newSized(n, m)
	workers = sizeWorkers(workers, n, len(p))
	if pr.w16 != nil {
		buildShards(pr.w16, p, weights, n, workers)
	} else {
		buildShards(pr.w32, p, weights, n, workers)
	}
	for i, r := range p {
		wt := 1
		if weights != nil {
			wt = weights[i]
		}
		addRowSums(pr.rows, r, wt)
	}
	return pr
}

// addRowSums adds one ranking's contribution, with weight wt, to the row
// sums: the candidate at position j has j candidates above it, each a cell
// W[r[j]][b] the ranking adds wt to.
func addRowSums(rows []int, r Ranking, wt int) {
	for j, c := range r {
		rows[c] += wt * j
	}
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
	return build(p, weights, int(total), workers), nil
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
func buildShards[T Cell](dst []T, p Profile, weights []int, n, workers int) {
	if workers <= 1 {
		accumulateShard(dst, p, weights, n)
		return
	}
	partials := make([][]T, workers)
	partials[0] = dst
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		lo, hi := shardBounds(len(p), workers, k)
		if k > 0 {
			partials[k] = make([]T, n*n)
		}
		wg.Add(1)
		go func(buf []T, lo, hi int) {
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

// accumulateShard adds each ranking's pairwise precedences, with its weight,
// into w (patchRanking per ranking). A shard's sums never exceed the whole
// profile's m, so they fit the width m chose.
func accumulateShard[T Cell](w []T, p Profile, weights []int, n int) {
	for idx, r := range p {
		wt := T(1)
		if weights != nil {
			if weights[idx] == 0 {
				continue
			}
			wt = T(weights[idx])
		}
		patchRanking(w, r, n, wt)
	}
}

// Clone returns a deep copy of w. Mutating either copy (AddRanking /
// RemoveRanking) never affects the other — the copy-on-write primitive
// behind sharing one matrix between a cache tier and a mutable engine.
func (w *Precedence) Clone() *Precedence {
	return &Precedence{n: w.n, m: w.m, w16: slices.Clone(w.w16), w32: slices.Clone(w.w32), rows: slices.Clone(w.rows)}
}

// AddRanking folds one more base ranking into w in O(n²) — the incremental
// alternative to rebuilding the whole matrix in O(n²·m). The result is
// bitwise identical to NewPrecedence over the extended profile (integer
// addition commutes, exactly the invariant the construction shards rely on).
// The ranking that takes m past 65535 first widens the cells to int32, one
// O(n²) copy.
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
	if w.w16 != nil && w.m == maxNarrow {
		w.w32 = make([]int32, len(w.w16))
		for i, v := range w.w16 {
			w.w32[i] = int32(v)
		}
		w.w16 = nil
	}
	w.patch(r, 1)
	w.m++
	return nil
}

// RemoveRanking subtracts one base ranking's contribution from w in O(n²).
// The caller must pass a ranking the matrix actually aggregates (w does not
// hold the profile, so it cannot verify membership itself — removing a
// ranking never added leaves cells out of range). Removing the exact
// rankings previously added, in any order, restores the matrix bitwise. It
// keeps the matrix's width.
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
	w.patch(r, -1)
	w.m--
	return nil
}

// patch adds (sign 1) or subtracts (sign −1) one ranking's contribution to
// the cells and the row sums. A uint16 cell takes the −1 as 0xFFFF, whose
// wrapping addition subtracts one.
func (w *Precedence) patch(r Ranking, sign int) {
	if w.w16 != nil {
		patchRanking(w.w16, r, w.n, uint16(sign))
	} else {
		patchRanking(w.w32, r, w.n, int32(sign))
	}
	addRowSums(w.rows, r, sign)
}

// patchRanking adds one ranking's pairwise precedences, with weight wt, into
// w. The kernel is the branch-free upper-triangle form: position i outranks
// position j for every i < j, and W[a][b] counts rankings placing b above
// a, so pair (i, j) increments exactly W[r[j]][r[i]] — half the iterations
// of the full n^2 position-compare loop and no per-pair branch. For fixed j
// all writes land in row r[j], one cache-resident stripe. It stays out of
// line: inlined into accumulateShard, its loop reloaded two spilled values
// from the stack on every cell.
//
//go:noinline
func patchRanking[T Cell](w []T, r Ranking, n int, wt T) {
	for j := 1; j < n; j++ {
		row := w[r[j]*n : r[j]*n+n]
		for _, b := range r[:j] {
			row[b] += wt
		}
	}
}

// N returns the number of candidates.
func (w *Precedence) N() int { return w.n }

// Cells returns the matrix's cell count (n²), whatever their width — the
// admission cost a cell-budgeted matrix cache charges for holding w.
func (w *Precedence) Cells() int64 { return int64(w.n) * int64(w.n) }

// CellBytes returns the resident bytes of w's cells at their width: 2n² for
// uint16 cells, 4n² for int32 ones.
func (w *Precedence) CellBytes() int64 {
	if w.w16 != nil {
		return 2 * w.Cells()
	}
	return 4 * w.Cells()
}

// Rankings returns the (weighted) number of base rankings summarised.
func (w *Precedence) Rankings() int { return w.m }

// At returns W[a][b]: how many base rankings place b above a, i.e. the
// disagreement cost of ordering a above b in the consensus.
func (w *Precedence) At(a, b int) int {
	if w.w16 != nil {
		return int(w.w16[a*w.n+b])
	}
	return int(w.w32[a*w.n+b])
}

// Margin returns W[a][b] - W[b][a]: the Kemeny-cost change of ordering a
// above b instead of b above a. By the pair invariant W[a][b] + W[b][a] = m
// it is 2·W[a][b] - m, one read from row a instead of a second, column-wise
// read from row b.
func (w *Precedence) Margin(a, b int) int { return 2*w.At(a, b) - w.m }

// KemenyCost returns the total pairwise disagreement between ranking r and
// the profile summarised by w: sum over ordered pairs (a above b) of W[a][b].
// This equals sum_i KendallTau(r, R_i).
func (w *Precedence) KemenyCost(r Ranking) int {
	if len(r) != w.n {
		panic("ranking: KemenyCost ranking length mismatch")
	}
	if w.w16 != nil {
		return kemenyCost(w.w16, r)
	}
	return kemenyCost(w.w32, r)
}

func kemenyCost[T Cell](w []T, r Ranking) int {
	n, cost := len(r), 0
	for i, a := range r {
		row := w[a*n : a*n+n]
		for _, b := range r[i+1:] {
			cost += int(row[b])
		}
	}
	return cost
}

// InversionMass fills up and dn, indexed by candidate, with the bound the
// Kemeny descent's insertion sweeps prune on, and returns KemenyCost(r) from
// the same reads. up[c] is the sum of the negative terms c's upward sweep
// would meet — Margin(c, b) for each b above c in r — and dn[c] the sum of
// the negative terms of its downward sweep, −Margin(c, b) for each b below
// c. Both are ≤ 0.
//
// One sweep over the pairs a = r[i] above b = r[j], i < j, reading row a as
// KemenyCost does: the pair's term min(0, −Margin(a, b)) is both a's
// downward term and b's upward one, so it goes to dn[a] and up[b]. Margins
// and sums are int: a weighted matrix allows m up to MaxInt32, where 2·cell
// and the sums overflow int32. len(up) and len(dn) must be N().
func (w *Precedence) InversionMass(r Ranking, up, dn []int) int {
	if len(r) != w.n || len(up) != w.n || len(dn) != w.n {
		panic("ranking: InversionMass length mismatch")
	}
	clear(up)
	if w.w16 != nil {
		return inversionMass(w.w16, w.m, r, up, dn)
	}
	return inversionMass(w.w32, w.m, r, up, dn)
}

func inversionMass[T Cell](w []T, m int, r Ranking, up, dn []int) int {
	n, cost := len(r), 0
	for i, a := range r {
		rowCost, mass := inversionRow(w[a*n:a*n+n], r[i+1:], up, m)
		cost += rowCost
		dn[a] = mass
	}
	return cost
}

// inversionRow is InversionMass's inner loop for one candidate a: over the
// candidates below a, it sums row a's cells (a's share of the Kemeny cost)
// and the negative terms m − 2·W[a][b], which it also adds to up[b]. It
// returns both sums. It stays out of line: inlined into InversionMass, the
// loop spilled its state to the stack on every pair and ran about 1.6x
// slower at n = 990 (2-CPU Intel Xeon, go1.24).
//
//go:noinline
func inversionRow[T Cell](row []T, below Ranking, up []int, m int) (cost, mass int) {
	for _, b := range below {
		cell := int(row[b])
		cost += cell
		if t := m - 2*cell; t < 0 {
			mass += t
			up[b] += t
		}
	}
	return cost, mass
}

// MoveInversionMass updates up and dn, as InversionMass filled them for r,
// to the ranking r.MoveTo(from, to) will leave, in O(|from−to|), and returns
// the move's Kemeny-cost change — MoveDelta, summed from the margins the
// update reads anyway. It does not move r: the caller applies MoveTo
// afterwards. Each candidate y the moved candidate x crosses flips one pair,
// whose term leaves x's and y's sums on one side and enters them on the
// other.
func (w *Precedence) MoveInversionMass(r Ranking, up, dn []int, from, to int) int {
	x := r[from]
	if w.w16 != nil {
		return moveInversionMass(w.w16[x*w.n:x*w.n+w.n], w.m, r, up, dn, from, to)
	}
	return moveInversionMass(w.w32[x*w.n:x*w.n+w.n], w.m, r, up, dn, from, to)
}

func moveInversionMass[T Cell](xrow []T, m int, r Ranking, up, dn []int, from, to int) (delta int) {
	x := r[from]
	if to < from {
		// x moves up past each y: (y above x) becomes (x above y).
		for _, y := range r[to:from] {
			mg := 2*int(xrow[y]) - m // Margin(x, y)
			delta += mg
			before, after := min(0, mg), min(0, -mg)
			up[x] -= before
			dn[y] -= before
			dn[x] += after
			up[y] += after
		}
		return delta
	}
	// x moves down past each y: (x above y) becomes (y above x).
	for _, y := range r[from+1 : to+1] {
		mg := 2*int(xrow[y]) - m
		delta -= mg
		before, after := min(0, -mg), min(0, mg)
		dn[x] -= before
		up[y] -= before
		up[x] += after
		dn[y] += after
	}
	return delta
}

// AdjacentSwapDelta returns, in O(1), the Kemeny-cost change of swapping the
// candidates at rank positions i and i+1 of r: the special case of MoveDelta
// for adjacent-transposition neighbourhoods, exposed so cost-tracking loops
// over swaps never pay an O(n^2) KemenyCost recomputation.
func (w *Precedence) AdjacentSwapDelta(r Ranking, i int) int {
	return -w.Margin(r[i], r[i+1])
}

// MoveDelta returns, in O(|from-to|), the Kemeny-cost change of
// r.MoveTo(from, to): the moved candidate flips its pairwise order against
// exactly the candidates it crosses.
func (w *Precedence) MoveDelta(r Ranking, from, to int) int {
	if w.w16 != nil {
		return moveDelta(w.w16, w.n, r, from, to)
	}
	return moveDelta(w.w32, w.n, r, from, to)
}

func moveDelta[T Cell](w []T, n int, r Ranking, from, to int) int {
	c := r[from]
	crow := w[c*n : c*n+n]
	delta := 0
	if from < to {
		// c moves down past r[from+1..to]: (c above y) becomes (y above c).
		for _, y := range r[from+1 : to+1] {
			delta += int(w[y*n+c]) - int(crow[y])
		}
	} else {
		// c moves up past r[to..from-1]: (y above c) becomes (c above y).
		for _, y := range r[to:from] {
			delta += int(crow[y]) - int(w[y*n+c])
		}
	}
	return delta
}

// RowSum returns sum over b of W[a][b], the total disagreement candidate a
// would incur ranked above everyone else, in O(1): the sums are kept with
// the matrix.
func (w *Precedence) RowSum(a int) int { return w.rows[a] }

// Borda returns the Borda consensus of the profile w summarises: candidate
// c earns one point per (ranking, rival) pair placing c above the rival,
// m·(n−1) minus its row sum — integer-identical to the point totals counted
// from the profile itself, so the ranking and its tie-breaks (ascending id)
// are too. O(n log n).
func (w *Precedence) Borda() Ranking {
	points := make([]int, w.n)
	for c, s := range w.rows {
		points[c] = w.m*(w.n-1) - s
	}
	return SortByPointsDesc(points)
}

// LowerBound returns an admissible lower bound on the Kemeny cost of any
// ranking: for each unordered pair the consensus must pay at least
// min(W[a][b], W[b][a]) disagreements.
func (w *Precedence) LowerBound() int {
	if w.w16 != nil {
		return lowerBound(w.w16, w.n)
	}
	return lowerBound(w.w32, w.n)
}

func lowerBound[T Cell](w []T, n int) int {
	lb := 0
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			lb += int(min(w[a*n+b], w[b*n+a]))
		}
	}
	return lb
}

// MajorityPrefers reports whether strictly more base rankings place a above b
// than b above a: W[b][a] > W[a][b], which the pair invariant makes
// Margin(a, b) < 0.
func (w *Precedence) MajorityPrefers(a, b int) bool {
	return w.Margin(a, b) < 0
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
	return w.PDLossOfCost(w.KemenyCost(r))
}

// PDLossOfCost is PDLoss for a ranking whose Kemeny cost against w is
// already known — a search that tracked it exactly. It is the one formula
// PDLoss applies, so both give the same float64 bits for the same cost.
func (w *Precedence) PDLossOfCost(cost int) float64 {
	if w.n < 2 || w.m == 0 {
		return 0
	}
	return float64(cost) / (float64(TotalPairs(w.n)) * float64(w.m))
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
