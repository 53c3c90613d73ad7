package fairness

import (
	"math"
	"sort"

	"manirank/internal/attribute"
	"manirank/internal/ranking"
)

// Tracker maintains one attribute's group fairness state incrementally over a
// working ranking, so repair loops and constrained searches can audit
// candidate edits in O(groups · log n) instead of re-deriving every FPR from
// the full ranking (O(n) per attribute) at every step. It is the shared
// engine behind both fair hot paths: Make-MR-Fair's parityEngine and the
// constrained Kemeny descent.
//
// The state is three structures kept in lock-step with the ranking:
//
//   - wins[v]: mixed pairs currently won by group v — the integer numerator
//     of FPR_v, identical to what GroupFPRs derives from scratch;
//   - groupAt[p]: the group of the candidate at position p;
//   - posByGroup[v]: the sorted positions currently held by group v, which
//     answers "how many members of v sit between positions a and b" in
//     O(log n) — the only question an insertion move's win delta needs.
//
// Two identities make the updates cheap (DESIGN.md §9). A swap of positions
// i < j transfers exactly j-i mixed-pair wins from the upper candidate's
// group to the lower one's and changes nothing else, so ApplySwap is O(1) on
// the counters. An insertion move of candidate c (group v) across a window
// of span s in which mid[u] members of group u sit changes wins[v] by
// ±(s - mid[v]) and wins[u] by ∓mid[u], so SpreadAfterWindow predicts the
// post-move ARP from window counts alone — without mutating the ranking —
// whether they come from binary searches (SpreadAfterMove) or from a
// histogram a sweep keeps (CountWindow).
//
// All derived scores (FPR, Spread) divide the same integers GroupFPRs
// divides, so every prediction and every incremental score is bitwise
// identical to a from-scratch fairness audit of the edited ranking; the
// FuzzTrackerParity target and the parity property suites pin this.
//
// A Tracker does not hold the ranking itself: callers apply each accepted
// edit to their ranking and mirror it here (ApplyMove / ApplySwap). The
// zero value is not usable; construct with NewTracker or NewGroupTracker.
type Tracker struct {
	of     []int // candidate -> group value
	groups int
	omegaM []int
	wins   []int
	// groupAt[p] is the group of the candidate at position p.
	groupAt []int
	// posByGroup[v] is the ascending list of positions held by group v.
	posByGroup [][]int
	// work is per-group scratch (2·groups ints) for Reset's size and seen
	// counters and SpreadAfterMove's window counts, so neither allocates.
	work []int

	// Minimum-distance pair cache for EachMinDistPair: for each ordered
	// group pair (a, b), the closest positioned pair with an a-member
	// directly above a b-member. Built lazily on first use; a swap dirties
	// only the two groups whose position lists changed, and only their
	// pairs are re-merged on the next query. minD uses -1 for "no pair".
	minD     []int
	pairPos  [][2]int
	dirty    []bool
	anyDirty bool
	cacheOK  bool
}

// NewTracker builds the incremental fairness state of attribute a over
// ranking r. O(n + groups).
func NewTracker(r ranking.Ranking, a *attribute.Attribute) *Tracker {
	return NewGroupTracker(r, a.Of, a.DomainSize())
}

// NewGroupTracker is NewTracker for a bare group map: of[c] is candidate c's
// group in 0..groups-1. It exists for grouping structures that are not
// attribute.Attributes — Make-MR-Fair's joint (cross-product) grouping in
// particular.
func NewGroupTracker(r ranking.Ranking, of []int, groups int) *Tracker {
	t := &Tracker{
		of:         of,
		groups:     groups,
		omegaM:     make([]int, groups),
		wins:       make([]int, groups),
		groupAt:    make([]int, len(r)),
		posByGroup: make([][]int, groups),
		work:       make([]int, 2*groups),
	}
	t.Reset(r)
	return t
}

// Reset recomputes the tracker's state from ranking r in O(n + groups),
// discarding all incremental state. Restart loops call it once per restart
// instead of allocating a fresh tracker.
func (t *Tracker) Reset(r ranking.Ranking) {
	n := len(r)
	sizes, seen := t.work[:t.groups], t.work[t.groups:]
	clear(t.work)
	for _, c := range r {
		sizes[t.of[c]]++
	}
	counts := sizes // reuse: consumed as remaining-capacity below
	for v := 0; v < t.groups; v++ {
		t.omegaM[v] = MixedPairs(sizes[v], n)
		t.wins[v] = 0
		if cap(t.posByGroup[v]) < sizes[v] {
			t.posByGroup[v] = make([]int, 0, sizes[v])
		} else {
			t.posByGroup[v] = t.posByGroup[v][:0]
		}
	}
	if cap(t.groupAt) < n {
		t.groupAt = make([]int, n)
	} else {
		t.groupAt = t.groupAt[:n]
	}
	// Same top-to-bottom win derivation as GroupFPRs: the candidate at
	// position i wins against the n-1-i candidates below it, minus those of
	// its own group (not mixed pairs).
	for i, c := range r {
		v := t.of[c]
		below := n - 1 - i
		sameBelow := counts[v] - seen[v] - 1
		t.wins[v] += below - sameBelow
		seen[v]++
		t.groupAt[i] = v
		t.posByGroup[v] = append(t.posByGroup[v], i)
	}
	t.cacheOK = false
}

// Groups returns the number of groups tracked.
func (t *Tracker) Groups() int { return t.groups }

// Win returns the current mixed-pair win count of group v.
func (t *Tracker) Win(v int) int { return t.wins[v] }

// Wins returns the live win-count slice, indexed by group value. It is a
// view into the tracker's state — treat it as read-only.
func (t *Tracker) Wins() []int { return t.wins }

// OmegaM returns omega_M(v), group v's total mixed pairs (0 for empty or
// universal groups).
func (t *Tracker) OmegaM(v int) int { return t.omegaM[v] }

// Positions returns the ascending positions currently held by group v. It is
// a view into the tracker's state — treat it as read-only; it is invalidated
// by the next ApplyMove/ApplySwap/Reset.
func (t *Tracker) Positions(v int) []int { return t.posByGroup[v] }

// FPR returns group v's current Favored Pair Representation score, with the
// same neutral-0.5 rule for groups without mixed pairs as GroupFPRs.
func (t *Tracker) FPR(v int) float64 {
	if t.omegaM[v] == 0 {
		return 0.5
	}
	return float64(t.wins[v]) / float64(t.omegaM[v])
}

// Spread returns the current ARP (max FPR - min FPR over the groups),
// bitwise identical to fairness.ARP on the tracked ranking.
func (t *Tracker) Spread() float64 {
	lo, hi := 2.0, -1.0
	for v := 0; v < t.groups; v++ {
		f := t.FPR(v)
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	return hi - lo
}

// SpreadAfterTransfer returns the ARP that would result from moving d
// mixed-pair wins from group a to group b, with everything else unchanged —
// the effect of swapping an a-member over a b-member at position distance d.
// a == b returns the current spread.
func (t *Tracker) SpreadAfterTransfer(a, b, d int) float64 {
	lo, hi := 2.0, -1.0
	for v := 0; v < t.groups; v++ {
		var f float64
		if t.omegaM[v] == 0 {
			f = 0.5
		} else {
			w := t.wins[v]
			if a != b {
				if v == a {
					w -= d
				}
				if v == b {
					w += d
				}
			}
			f = float64(w) / float64(t.omegaM[v])
		}
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	return hi - lo
}

// countIn returns how many members of group v sit at positions in [lo, hi]
// (inclusive), in O(log n).
func (t *Tracker) countIn(v, lo, hi int) int {
	ps := t.posByGroup[v]
	return sort.SearchInts(ps, hi+1) - sort.SearchInts(ps, lo)
}

// moveWindow returns the inclusive position window crossed by moving the
// candidate at position from to position to, plus whether the move is
// upward. MoveTo semantics: upward moves cross [to, from-1], downward moves
// cross [from+1, to].
func moveWindow(from, to int) (lo, hi int, up bool) {
	if to < from {
		return to, from - 1, true
	}
	return from + 1, to, false
}

// SpreadAfterMove returns the ARP that would result from r.MoveTo(from, to)
// on the tracked ranking, computed from interval counts in O(groups · log n)
// without mutating the ranking. It is bitwise identical to recomputing ARP
// on the moved ranking. The window counts go through the tracker's scratch,
// so — like every other method — it is not safe for concurrent use.
func (t *Tracker) SpreadAfterMove(from, to int) float64 {
	if from == to {
		return t.Spread()
	}
	lo, hi, up := moveWindow(from, to)
	mid := t.work[:t.groups]
	for u := range mid {
		mid[u] = t.countIn(u, lo, hi)
	}
	spread, _ := t.SpreadAfterWindow(t.groupAt[from], hi-lo+1, up, mid, math.Inf(1))
	return spread
}

// SpreadAfterWindow returns the ARP that would result from moving a
// candidate of group v across a window of span positions, upward (past
// every window member) when up and downward otherwise, where mid[u] is the
// number of window positions group u holds. By the win-transfer identity
// wins[v] moves by ±(span - mid[v]) and every other wins[u] by ∓mid[u]; the
// integers and the divisions are the ones GroupFPRs uses, so the result is
// bitwise identical to auditing the moved ranking from scratch.
//
// It is the one spread formula behind every move prediction:
// SpreadAfterMove feeds it binary-search counts, and the constrained descent
// feeds it the histograms it keeps while sweeping a candidate's insertion
// targets. The group loop stops as soon as max - min exceeds bound (both
// only grow, so "> bound" is already decided) and returns that partial
// spread; pass +Inf for the exact value. O(groups).
//
// blocked reports that the gap between group v and one other group alone
// exceeds bound. Growing the window in the same direction only pushes v's
// FPR further away from every other group's (v gains wins, the rest lose
// them, or the reverse), so every larger window is over bound too and a
// sweep can stop there.
func (t *Tracker) SpreadAfterWindow(v, span int, up bool, mid []int, bound float64) (spread float64, blocked bool) {
	fv := 0.5
	if om := t.omegaM[v]; om != 0 {
		w := t.wins[v]
		if up {
			w += span - mid[v]
		} else {
			w -= span - mid[v]
		}
		fv = float64(w) / float64(om)
	}
	lo, hi := fv, fv
	for u, om := range t.omegaM {
		if u == v {
			continue
		}
		f := 0.5
		if om != 0 {
			w := t.wins[u]
			if up {
				w -= mid[u]
			} else {
				w += mid[u]
			}
			f = float64(w) / float64(om)
		}
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
		if hi-lo > bound {
			break
		}
	}
	if up {
		blocked = fv-lo > bound
	} else {
		blocked = hi-fv > bound
	}
	return hi - lo, blocked
}

// GroupAt returns the group of the candidate at position p.
func (t *Tracker) GroupAt(p int) int { return t.groupAt[p] }

// CountWindow adds, for every position p in [lo, hi], one to mid[group at
// p] — growing a window histogram for SpreadAfterWindow by the positions a
// sweep has newly crossed. O(hi - lo + 1).
func (t *Tracker) CountWindow(mid []int, lo, hi int) {
	for _, v := range t.groupAt[lo : hi+1] {
		mid[v]++
	}
}

// ApplyMove mirrors r.MoveTo(from, to) into the tracker in
// O(span + groups · log n): the win counters move by the same deltas
// SpreadAfterMove predicted, the window's group-position entries shift by
// one, and the moved candidate's entry is relocated. The caller applies the
// actual MoveTo to its ranking.
func (t *Tracker) ApplyMove(from, to int) {
	if from == to {
		return
	}
	lo, hi, up := moveWindow(from, to)
	span := hi - lo + 1
	v := t.groupAt[from]
	for u := 0; u < t.groups; u++ {
		ps := t.posByGroup[u]
		a := sort.SearchInts(ps, lo)
		b := sort.SearchInts(ps, hi+1)
		mid := b - a
		if u == v {
			if up {
				t.wins[v] += span - mid
			} else {
				t.wins[v] -= span - mid
			}
		} else if up {
			t.wins[u] -= mid
		} else {
			t.wins[u] += mid
		}
		// Window members shift one position away from the move direction.
		if up {
			for i := a; i < b; i++ {
				ps[i]++
			}
		} else {
			for i := a; i < b; i++ {
				ps[i]--
			}
		}
	}
	// Relocate the moved candidate's own entry: its position jumps from
	// `from` (just outside the window) to `to` (the window's far edge).
	ps := t.posByGroup[v]
	if up {
		// Entry `from` sits immediately after the (now shifted) window
		// members; the new value `to` sorts before them.
		i := sort.SearchInts(ps, from)
		j := sort.SearchInts(ps, to)
		copy(ps[j+1:i+1], ps[j:i])
		ps[j] = to
	} else {
		i := sort.SearchInts(ps, from)
		j := sort.SearchInts(ps, to+1) - 1
		copy(ps[i:j], ps[i+1:j+1])
		ps[j] = to
	}
	// Mirror the MoveTo on the position -> group map.
	if up {
		copy(t.groupAt[lo+1:from+1], t.groupAt[lo:from])
	} else {
		copy(t.groupAt[from:hi], t.groupAt[from+1:hi+1])
	}
	t.groupAt[to] = v
	// Window members changed distance to everything outside the window, so
	// every cached min-distance pair is suspect.
	t.cacheOK = false
}

// ApplySwap mirrors swapping the candidates at positions i and j (any order)
// into the tracker. By the win-transfer identity the counters change by
// exactly |j-i| wins between the two groups; the two groups' position lists
// exchange one entry each. O(group members between i and j); a same-group
// swap is free.
func (t *Tracker) ApplySwap(i, j int) {
	if i == j {
		return
	}
	if i > j {
		i, j = j, i
	}
	va, vb := t.groupAt[i], t.groupAt[j]
	if va == vb {
		return
	}
	d := j - i
	t.wins[va] -= d
	t.wins[vb] += d
	replaceSorted(t.posByGroup[va], i, j)
	replaceSorted(t.posByGroup[vb], j, i)
	t.groupAt[i], t.groupAt[j] = vb, va
	if t.cacheOK {
		t.markDirty(va)
		t.markDirty(vb)
	}
}

// replaceSorted substitutes value old with value new in the sorted slice ps,
// shifting the elements in between to keep it sorted.
func replaceSorted(ps []int, old, new int) {
	i := sort.SearchInts(ps, old)
	if new > old {
		j := sort.SearchInts(ps, new) - 1
		copy(ps[i:j], ps[i+1:j+1])
		ps[j] = new
	} else {
		j := sort.SearchInts(ps, new)
		copy(ps[j+1:i+1], ps[j:i])
		ps[j] = new
	}
}

func (t *Tracker) markDirty(v int) {
	if !t.dirty[v] {
		t.dirty[v] = true
		t.anyDirty = true
	}
}

// EachMinDistPair invokes fn on, for every ordered group pair (a, b), the
// closest positioned pair with an a-member directly above a b-member — the
// finest-grained corrective swaps available between those groups — in
// ascending (a·groups + b) order, matching the historical full-scan
// emission order exactly (ties inside a pair resolve to the bottom-most
// minimal-distance pair).
//
// The pair table is cached: the first call after construction or an
// ApplyMove costs one O(n·groups) bottom-up scan; after a swap only the two
// affected groups' pairs are re-merged from their position lists
// (O(groups · (|a|+|b|))), and clean pairs are served from the cache.
func (t *Tracker) EachMinDistPair(fn func(i, j int)) {
	g := t.groups
	if t.minD == nil {
		t.minD = make([]int, g*g)
		t.pairPos = make([][2]int, g*g)
		t.dirty = make([]bool, g)
	}
	switch {
	case !t.cacheOK:
		t.rebuildPairScan()
		t.cacheOK = true
		for v := range t.dirty {
			t.dirty[v] = false
		}
		t.anyDirty = false
	case t.anyDirty:
		for a := 0; a < g; a++ {
			for b := 0; b < g; b++ {
				if a != b && (t.dirty[a] || t.dirty[b]) {
					t.remergePair(a, b)
				}
			}
		}
		for v := range t.dirty {
			t.dirty[v] = false
		}
		t.anyDirty = false
	}
	for idx, d := range t.minD {
		if d >= 0 {
			fn(t.pairPos[idx][0], t.pairPos[idx][1])
		}
	}
}

// rebuildPairScan recomputes every pair with the historical bottom-up scan:
// one pass over positions, O(n·groups).
func (t *Tracker) rebuildPairScan() {
	g := t.groups
	for idx := range t.minD {
		t.minD[idx] = -1
	}
	nearestBelow := make([]int, g)
	for v := range nearestBelow {
		nearestBelow[v] = -1
	}
	for p := len(t.groupAt) - 1; p >= 0; p-- {
		a := t.groupAt[p]
		for b := 0; b < g; b++ {
			if b == a || nearestBelow[b] < 0 {
				continue
			}
			if d := nearestBelow[b] - p; t.minD[a*g+b] < 0 || d < t.minD[a*g+b] {
				t.minD[a*g+b] = d
				t.pairPos[a*g+b] = [2]int{p, nearestBelow[b]}
			}
		}
		nearestBelow[a] = p
	}
}

// remergePair recomputes the (a, b) entry from the two groups' sorted
// position lists. Tie-breaking matches the bottom-up scan: among
// minimal-distance pairs, the bottom-most (largest upper position) wins.
func (t *Tracker) remergePair(a, b int) {
	g := t.groups
	pa, pb := t.posByGroup[a], t.posByGroup[b]
	bestD := -1
	var best [2]int
	bi := 0
	for _, p := range pa {
		for bi < len(pb) && pb[bi] <= p {
			bi++
		}
		if bi == len(pb) {
			break
		}
		if d := pb[bi] - p; bestD < 0 || d <= bestD {
			bestD = d
			best = [2]int{p, pb[bi]}
		}
	}
	t.minD[a*g+b] = bestD
	t.pairPos[a*g+b] = best
}
