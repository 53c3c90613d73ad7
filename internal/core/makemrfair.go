package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"manirank/internal/fairness"
	"manirank/internal/ranking"
)

// improveEps is the strict-improvement margin of the repair loop's
// lexicographic (potential, band) acceptance: a swap counts as progress only
// when it moves a score by more than this. It is deliberately finer than
// fairness.Eps — the feasibility band — because improvement deltas are
// single-win quanta (1/omega_M steps) that can be orders of magnitude
// smaller than the Delta comparisons fairness.Eps absorbs.
const improveEps = 1e-15

// ErrUnrepairable reports that Make-MR-Fair could not find a pair swap that
// reduces the worst parity violation; this happens only for thresholds that
// are unsatisfiable given the group structure (e.g. a group covering all but
// one candidate).
var ErrUnrepairable = errors.New("core: Make-MR-Fair cannot reach the requested fairness thresholds")

// MakeMRFair implements the paper's Make-MR-Fair algorithm (Algorithm 2): it
// repairs consensus ranking r with targeted pair swaps until every target's
// FPR spread is at or below its Delta. Each iteration corrects the attribute
// with the worst violation by swapping the lowest-ranked member of its
// highest-FPR group with the highest-ranked lower member of its lowest-FPR
// group, repositioning candidates into impactful top positions so few swaps
// (and little added PD loss) are needed.
//
// The input ranking is not modified; the repaired ranking is returned.
// Fairness scores are maintained incrementally, so one swap costs O(span*q)
// where span is the position distance swapped and q the number of targets.
func MakeMRFair(r ranking.Ranking, targets []Target) (ranking.Ranking, error) {
	out, _, err := repair(r, targets, (*parityEngine).paperSwap, nil)
	return out, err
}

// swapPicker proposes the next repair swap, as positions i < j of the
// engine's working ranking, given the current potential cur. ok is false
// when it has nothing that strictly lowers cur.
type swapPicker func(eng *parityEngine, cur float64) (i, j int, ok bool)

// repair is the one Make-MR-Fair loop behind MakeMRFair,
// MakeMRFairWithPolicy, RepairToLevels and Fair-Kemeny's incumbent repair.
// It validates r and targets, then applies the swap pick proposes until
// every target holds; when pick is nil or proposes nothing, it takes the
// best minimum-distance transfer (findBestGlobalTransfer) instead. It
// returns the repaired ranking and the number of swaps applied, and reports
// each swap to onSwap (when non-nil) right after applying it: Fair-Kemeny
// replays the swaps on its search state, keeping that state's bounds and
// cost exact without re-reading the pairs. The input ranking is not
// modified.
func repair(r ranking.Ranking, targets []Target, pick swapPicker, onSwap func(i, j int)) (ranking.Ranking, int, error) {
	if err := r.Validate(); err != nil {
		return nil, 0, err
	}
	for _, tg := range targets {
		if tg.Attr.N() != len(r) {
			return nil, 0, fmt.Errorf("core: target attribute %q covers %d candidates, ranking has %d", tg.Attr.Name, tg.Attr.N(), len(r))
		}
		if tg.Delta < 0 || tg.Delta > 1 {
			return nil, 0, fmt.Errorf("core: target %q has Delta %v outside [0,1]", tg.Attr.Name, tg.Delta)
		}
	}
	eng := newParityEngine(r, targets)
	n := len(r)
	// Worst case the algorithm flips every pair once per target
	// (paper complexity analysis); anything beyond signals an
	// unsatisfiable threshold combination.
	maxIters := n*n*(len(targets)+1) + n
	for iter := 0; ; iter++ {
		cur := eng.potential()
		if cur <= 0 {
			return eng.r, iter, nil
		}
		if iter >= maxIters {
			return nil, iter, fmt.Errorf("%w (gave up after %d swaps)", ErrUnrepairable, iter)
		}
		i, j, ok := 0, 0, false
		if pick != nil {
			i, j, ok = pick(eng, cur)
		}
		if !ok {
			// Search the finest-grained candidate swaps: for every target
			// and every ordered group pair, the closest positioned pair
			// transferring wins between those groups. Accept the candidate
			// that most reduces (total violation, band excess)
			// lexicographically. Requiring a strict decrease of the
			// violation makes the repair loop immune to the cross-target
			// ping-pong that per-target acceptance allows (fixing Gender can
			// re-break Race and vice versa, forever); the band-excess
			// tie-break drains plateaus where several groups tie at the
			// extreme FPR, so a swap that pulls one of them inward counts as
			// progress even though the spread has not moved yet. The band
			// [0.5 - delta/2, 0.5 + delta/2] is canonical: the
			// omega_M-weighted mean of group FPRs is exactly 0.5 in every
			// ranking, so parity always centres there.
			if i, j, ok = eng.findBestGlobalTransfer(cur); !ok {
				return nil, iter, ErrUnrepairable
			}
		}
		eng.swap(i, j)
		if onSwap != nil {
			onSwap(i, j)
		}
	}
}

// paperSwap is the paper's pick: it prefers the paper's pair for the worst
// target ("fewer but more impactful swaps") whenever that strictly reduces
// the total violation. A distance-d swap transfers exactly d mixed-pair wins
// between the swapped candidates' groups under EVERY target, so the
// post-swap violation of all targets is computable in O(sum of group
// counts) without touching the ranking.
//
// Candidate strides, longest first: the paper's pair (lowest member of the
// highest-FPR group against the first lowest-group member below it) and the
// capped pair (the longest vh-above-vl pair whose win transfer still lands
// the extreme pair inside the parity band). In block-unfair rankings the
// paper's pair IS the long stride; in well-mixed rankings it degrades to
// distance 1-2 while the needed transfer is Theta(n^2) wins, so preferring
// the longer stride keeps progress geometric in the remaining gap and the
// repair near-linear on large candidate databases (Table III runs
// n = 10^5).
func (eng *parityEngine) paperSwap(cur float64) (i, j int, ok bool) {
	k := eng.worstTarget()
	vh, vl := eng.extremeGroups(k)
	i1, j1, ok1 := eng.findSwap(k, vh, vl)
	i2, j2, ok2 := eng.findCappedSwap(k, vh, vl)
	if ok1 && ok2 && j2-i2 > j1-i1 {
		i1, j1, i2, j2 = i2, j2, i1, j1
	} else if !ok1 {
		i1, j1, ok1 = i2, j2, ok2
		ok2 = false
	}
	if ok1 && eng.potentialAfter(i1, j1) < cur-improveEps {
		return i1, j1, true
	}
	if ok2 && eng.potentialAfter(i2, j2) < cur-improveEps {
		return i2, j2, true
	}
	return 0, 0, false
}

// parityEngine tracks the FPR spread of every target incrementally across
// pair swaps of a working ranking. Since PR 6 it is a thin coordinator over
// fairness.Tracker instances — one per target plus one for the joint
// (cross-product) grouping — which maintain the win counters and per-group
// sorted position lists that make findSwap, findCappedSwap, and the
// global-transfer candidate enumeration incremental instead of O(n·g)
// rescans per repair iteration.
type parityEngine struct {
	r    ranking.Ranking
	tgts []Target
	// trk[k] is target k's incremental fairness state.
	trk []*fairness.Tracker
	// wins[k][v] = mixed pairs currently won by group v of target k; live
	// views into trk[k]'s counters, kept for the O(groups) preview loops
	// (spreadAfterTransfer, bandAfter) and the parity property tests.
	wins [][]int
	// omegaM[k][v] = total mixed pairs of group v (0 for empty/universal).
	omegaM [][]int
	// joint tracks the joint (cross-product) grouping over all target
	// attributes; swap candidates are enumerated between joint groups
	// because they subsume every target's own group pairs while offering
	// the finest-grained moves (e.g. a cross-gender swap within one race).
	// nil when the occupied combination count exceeds maxJointGroups.
	joint *fairness.Tracker
	// jointOf[c] is candidate c's joint group; nil exactly when joint is.
	jointOf []int
	jointG  int
}

// maxJointGroups caps the joint candidate-generation structure; beyond it
// the per-target group tables are used instead.
const maxJointGroups = 512

func newParityEngine(r ranking.Ranking, targets []Target) *parityEngine {
	eng := &parityEngine{
		r:      r.Clone(),
		tgts:   targets,
		trk:    make([]*fairness.Tracker, len(targets)),
		wins:   make([][]int, len(targets)),
		omegaM: make([][]int, len(targets)),
	}
	for k, tg := range targets {
		eng.trk[k] = fairness.NewTracker(eng.r, tg.Attr)
		eng.wins[k] = eng.trk[k].Wins()
		g := tg.Attr.DomainSize()
		eng.omegaM[k] = make([]int, g)
		for v := 0; v < g; v++ {
			eng.omegaM[k][v] = eng.trk[k].OmegaM(v)
		}
	}
	eng.buildJoint()
	return eng
}

// buildJoint indexes the occupied combinations of all target attributes.
func (eng *parityEngine) buildJoint() {
	n := len(eng.r)
	if len(eng.tgts) == 0 {
		return
	}
	joint := make([]int, n)
	index := map[int]int{}
	for c := 0; c < n; c++ {
		key := 0
		for _, tg := range eng.tgts {
			key = key*tg.Attr.DomainSize() + tg.Attr.Of[c]
		}
		id, ok := index[key]
		if !ok {
			id = len(index)
			if id >= maxJointGroups {
				return // too many combinations; keep jointOf nil
			}
			index[key] = id
		}
		joint[c] = id
	}
	eng.jointOf = joint
	eng.jointG = len(index)
	eng.joint = fairness.NewGroupTracker(eng.r, joint, eng.jointG)
}

// fpr returns the current FPR of group v under target k (0.5 for groups with
// no mixed pairs, mirroring the fairness package).
func (eng *parityEngine) fpr(k, v int) float64 {
	return eng.trk[k].FPR(v)
}

// spread returns the current ARP of target k.
func (eng *parityEngine) spread(k int) float64 {
	return eng.trk[k].Spread()
}

// worstTarget returns the index of the violated target with the largest
// spread, or -1 when every target is satisfied.
func (eng *parityEngine) worstTarget() int {
	worst, idx := 0.0, -1
	for k, tg := range eng.tgts {
		s := eng.spread(k)
		if s > tg.Delta+fairness.Eps && s > worst {
			worst, idx = s, k
		}
	}
	return idx
}

// extremeGroups returns the group values with the highest and lowest FPR for
// target k (ties break to the lower value index, deterministic).
func (eng *parityEngine) extremeGroups(k int) (vh, vl int) {
	g := eng.tgts[k].Attr.DomainSize()
	hi, lo := -1.0, 2.0
	for v := 0; v < g; v++ {
		f := eng.fpr(k, v)
		if f > hi {
			hi, vh = f, v
		}
		if f < lo {
			lo, vl = f, v
		}
	}
	return vh, vl
}

// findSwap locates the positions (i above, j below) to exchange per the
// paper's policy: the lowest-ranked member of the highest-FPR group that
// still favours some member of the lowest-FPR group, paired with the highest
// such Glowest member below it (the first unfavored Glowest candidate among
// its ordered mixed pairs). When the lowest Ghighest member has no Glowest
// candidate below it, the anchor moves up through Ghighest (paper Algorithm
// 2's "next lowest xi" clause). Two binary searches on the tracker's sorted
// position lists find the pair in O(log n) — the historical bottom-up scan's
// answer is exactly "the largest vh position below some vl member, paired
// with the first vl position after it". ok is false only when every Glowest
// member is ranked above every Ghighest member, in which case no corrective
// swap exists.
func (eng *parityEngine) findSwap(k, vh, vl int) (i, j int, ok bool) {
	ph := eng.trk[k].Positions(vh)
	pl := eng.trk[k].Positions(vl)
	if len(ph) == 0 || len(pl) == 0 {
		return 0, 0, false
	}
	// Largest vh position above the bottom-most vl member.
	hi := sort.SearchInts(ph, pl[len(pl)-1])
	if hi == 0 {
		return 0, 0, false
	}
	i = ph[hi-1]
	j = pl[sort.SearchInts(pl, i+1)]
	return i, j, true
}

// potential returns the total violation across all targets:
// sum of max(0, spread_k - delta_k). Zero means every target is satisfied.
func (eng *parityEngine) potential() float64 {
	p := 0.0
	for k, tg := range eng.tgts {
		if s := eng.spread(k); s > tg.Delta+fairness.Eps {
			p += s - tg.Delta
		}
	}
	return p
}

// potentialAfter predicts the total violation after swapping the candidates
// at positions i < j. The swap transfers exactly j-i mixed-pair wins from
// the upper candidate's group to the lower candidate's group under every
// target (and nothing else changes), so no ranking mutation is needed.
func (eng *parityEngine) potentialAfter(i, j int) float64 {
	a, b := eng.r[i], eng.r[j]
	d := j - i
	p := 0.0
	for k, tg := range eng.tgts {
		s := eng.spreadAfterTransfer(k, tg.Attr.Of[a], tg.Attr.Of[b], d)
		if s > tg.Delta+fairness.Eps {
			p += s - tg.Delta
		}
	}
	return p
}

// spreadAfterTransfer computes target k's spread after moving d mixed-pair
// wins from group a to group b (a == b leaves the target unchanged).
func (eng *parityEngine) spreadAfterTransfer(k, a, b, d int) float64 {
	return eng.trk[k].SpreadAfterTransfer(a, b, d)
}

// band returns the total band excess across all targets: how far every
// group's FPR sits outside [0.5 - delta_k/2, 0.5 + delta_k/2], summed. Band
// excess 0 implies every spread is at or below its delta.
func (eng *parityEngine) band() float64 {
	b := 0.0
	for k, tg := range eng.tgts {
		for v := 0; v < tg.Attr.DomainSize(); v++ {
			b += bandExcess(eng.fpr(k, v), tg.Delta)
		}
	}
	return b
}

func bandExcess(f, delta float64) float64 {
	if over := f - (0.5 + delta/2); over > 0 {
		return over
	}
	if under := (0.5 - delta/2) - f; under > 0 {
		return under
	}
	return 0
}

// bandAfter predicts the total band excess after swapping positions i < j.
func (eng *parityEngine) bandAfter(i, j int) float64 {
	a, b := eng.r[i], eng.r[j]
	d := j - i
	total := 0.0
	for k, tg := range eng.tgts {
		va, vb := tg.Attr.Of[a], tg.Attr.Of[b]
		for v := 0; v < tg.Attr.DomainSize(); v++ {
			var f float64
			if eng.omegaM[k][v] == 0 {
				f = 0.5
			} else {
				w := eng.wins[k][v]
				if va != vb {
					if v == va {
						w -= d
					}
					if v == vb {
						w += d
					}
				}
				f = float64(w) / float64(eng.omegaM[k][v])
			}
			total += bandExcess(f, tg.Delta)
		}
	}
	return total
}

// findCappedSwap returns the vh-above-vl positioned pair with the largest
// distance d such that transferring d wins leaves the pair's FPR gap just
// below the target's Delta (satisfied, but no further — over-correcting
// wastes PD loss and undershoots requested unfairness levels in data
// generation). The tracker's maintained position lists replace the
// historical O(n) collection scan; a merge-style sweep then maximises d
// subject to the cap in O(|vh| + |vl|).
func (eng *parityEngine) findCappedSwap(k, vh, vl int) (i, j int, ok bool) {
	tg := eng.tgts[k]
	if eng.omegaM[k][vh] == 0 || eng.omegaM[k][vl] == 0 {
		return 0, 0, false
	}
	gap := eng.fpr(k, vh) - eng.fpr(k, vl)
	if gap <= tg.Delta {
		return 0, 0, false
	}
	step := 1/float64(eng.omegaM[k][vh]) + 1/float64(eng.omegaM[k][vl])
	// The smallest transfer that brings the pair gap to or below Delta;
	// larger transfers over-correct.
	dmax := int(math.Ceil((gap-tg.Delta)/step - 1e-9))
	if dmax < 1 {
		return 0, 0, false
	}
	vhPos := eng.trk[k].Positions(vh)
	vlPos := eng.trk[k].Positions(vl)
	bestD := 0
	hi := 0 // index into vhPos of the smallest position >= q-dmax
	for _, q := range vlPos {
		for hi < len(vhPos) && vhPos[hi] < q-dmax {
			hi++
		}
		if hi < len(vhPos) && vhPos[hi] < q {
			if d := q - vhPos[hi]; d > bestD {
				bestD = d
				i, j, ok = vhPos[hi], q, true
			}
		}
	}
	return i, j, ok
}

// findBestGlobalTransfer enumerates, for every target and every ordered pair
// of its groups, the closest positioned pair transferring wins between those
// groups (the finest-grained corrective swaps available), and returns the
// candidate that most reduces (total violation, band excess)
// lexicographically. cur is the current potential; ok is false when no
// candidate strictly improves, which only happens for threshold combinations
// finer than the win granularity.
// Cost is O(n * sum(g_k) + sum(g_k^2) * sum(g_k)).
func (eng *parityEngine) findBestGlobalTransfer(cur float64) (i, j int, ok bool) {
	bestP := cur
	bestB := eng.band()
	consider := func(pi, pj int) {
		p := eng.potentialAfter(pi, pj)
		if p > bestP+improveEps {
			return
		}
		b := eng.bandAfter(pi, pj)
		if p < bestP-improveEps || b < bestB-improveEps {
			bestP, bestB = p, b
			i, j, ok = pi, pj, true
		}
	}
	if eng.joint != nil {
		eng.joint.EachMinDistPair(consider)
		return i, j, ok
	}
	for k := range eng.tgts {
		eng.trk[k].EachMinDistPair(consider)
	}
	return i, j, ok
}

// findBestAdjacentSwap scans the n-1 adjacent position pairs and returns the
// one (i, i+1) whose swap (a single-win transfer under every target) best
// reduces (total violation, band excess) lexicographically. ok is false when
// no adjacent swap improves — RepairToLevels then falls back to a
// minimum-distance transfer.
func (eng *parityEngine) findBestAdjacentSwap(cur float64) (i, j int, ok bool) {
	bestP := cur
	bestB := eng.band()
	for p := 0; p+1 < len(eng.r); p++ {
		pp := eng.potentialAfter(p, p+1)
		if pp > bestP+improveEps {
			continue
		}
		b := eng.bandAfter(p, p+1)
		if pp < bestP-improveEps || b < bestB-improveEps {
			bestP, bestB = pp, b
			i, j, ok = p, p+1, true
		}
	}
	return i, j, ok
}

// swap exchanges the candidates at positions i < j and updates every
// tracker. The win-transfer identity (every middle candidate loses one win
// to the riser and gains one from the faller, cancelling exactly) makes the
// counter update O(1) per tracker — the historical O(j-i) window walk per
// target computed the same net transfer term by term — leaving only the
// position-list maintenance, which touches the two swapped groups' lists.
func (eng *parityEngine) swap(i, j int) {
	if i > j {
		i, j = j, i
	}
	a, b := eng.r[i], eng.r[j] // a moves down to j, b moves up to i
	for _, t := range eng.trk {
		t.ApplySwap(i, j)
	}
	if eng.joint != nil {
		eng.joint.ApplySwap(i, j)
	}
	eng.r[i], eng.r[j] = b, a
}
