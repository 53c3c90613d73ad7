package kemeny

import (
	"manirank/internal/fairness"
	"manirank/internal/ranking"
)

// auditor is the constrained descent's incremental feasibility oracle: one
// fairness.Tracker per constraint, kept in lock-step with the working
// ranking. It answers "would this insertion move keep every ARP within
// Delta?" without mutating the ranking, in two forms: feasibleMove probes
// one arbitrary move in O(groups · log n) per constraint (the perturbation
// kernel), and the window sweep — startWindow, then feasibleTo — probes the
// insertion targets of one candidate in sweep order from per-group
// histograms of the positions crossed, O(groups) per probe (the descent's
// scan). Decisions are bitwise identical to the Feasible path: the trackers
// derive the exact integer win counts GroupFPRs derives, so every FPR
// division and Delta comparison sees the same float64s.
type auditor struct {
	trk   []*fairness.Tracker
	bound []float64 // bound[k] = cons[k].Delta + fairness.Eps
	// Window sweep state, per constraint k: the swept candidate's group,
	// the histogram of the groups at the positions counted so far, and
	// edge[k], the last position counted (from itself before the first).
	group []int
	mid   [][]int
	edge  []int
	// The swept candidate's position and the sweep direction.
	from int
	up   bool
}

// newAuditor builds trackers for every constraint over ranking r.
func newAuditor(cons []Constraint, r ranking.Ranking) *auditor {
	a := &auditor{
		trk:   make([]*fairness.Tracker, len(cons)),
		bound: make([]float64, len(cons)),
		group: make([]int, len(cons)),
		mid:   make([][]int, len(cons)),
		edge:  make([]int, len(cons)),
	}
	for k, c := range cons {
		a.trk[k] = fairness.NewTracker(r, c.Attr)
		a.bound[k] = c.Delta + fairness.Eps
		a.mid[k] = make([]int, a.trk[k].Groups())
	}
	return a
}

// reset re-derives every tracker from r — O(n + groups) per constraint —
// realigning the auditor after its ranking was replaced wholesale (a new
// restart copying the seed).
func (a *auditor) reset(r ranking.Ranking) {
	for _, t := range a.trk {
		t.Reset(r)
	}
}

// feasibleMove reports whether r.MoveTo(from, to) would leave every
// constraint satisfied, without mutating anything.
func (a *auditor) feasibleMove(from, to int) bool {
	for k, t := range a.trk {
		if t.SpreadAfterMove(from, to) > a.bound[k] {
			return false
		}
	}
	return true
}

// startWindow begins a sweep over the insertion targets of the candidate at
// position from, upward (to = from-1, from-2, ...) when up and downward
// otherwise, with empty windows. O(groups) per constraint.
func (a *auditor) startWindow(from int, up bool) {
	a.from, a.up = from, up
	for k, t := range a.trk {
		a.group[k] = t.GroupAt(from)
		a.edge[k] = from
		clear(a.mid[k])
	}
}

// feasibleTo reports whether moving the swept candidate to position to
// would leave every constraint satisfied — feasibleMove's decision for the
// same move — in O(groups) per constraint plus the positions newly counted.
// When it is not, blocked reports that no target further along the sweep
// can be feasible either (fairness.Tracker.SpreadAfterWindow), so the sweep
// may stop.
//
// Successive calls must target strictly further along the sweep. Windows
// are counted lazily: constraint k's histogram only catches up to to when k
// is actually evaluated, so a sweep counts each position at most once per
// constraint, never past its last probe, and not at all for the constraints
// after a failing one.
func (a *auditor) feasibleTo(to int) (ok, blocked bool) {
	span := to - a.from
	if a.up {
		span = -span
	}
	for k, t := range a.trk {
		if a.up {
			t.CountWindow(a.mid[k], to, a.edge[k]-1)
		} else {
			t.CountWindow(a.mid[k], a.edge[k]+1, to)
		}
		a.edge[k] = to
		if spread, blocked := t.SpreadAfterWindow(a.group[k], span, a.up, a.mid[k], a.bound[k]); spread > a.bound[k] {
			return false, blocked
		}
	}
	return true, false
}

// applyMove mirrors an accepted r.MoveTo(from, to) into every tracker. The
// caller applies the actual MoveTo to its ranking.
func (a *auditor) applyMove(from, to int) {
	for _, t := range a.trk {
		t.ApplyMove(from, to)
	}
}

// syncAuditor points the scratch's auditor at ranking r, building it on
// first use and resetting it otherwise. An empty constraint set needs no
// auditor and leaves sc.aud nil (callers treat nil as always-feasible).
func (sc *searchScratch) syncAuditor(cons []Constraint, r ranking.Ranking) {
	if len(cons) == 0 {
		return
	}
	if sc.aud == nil {
		sc.aud = newAuditor(cons, r)
		return
	}
	sc.aud.reset(r)
}
