package main

import (
	"math"

	"manirank/internal/attribute"
	"manirank/internal/fairness"
	"manirank/internal/ranking"
)

// checker validates the answers over one profile: the answer must be a
// complete permutation of the profile's candidates, a fair method's answer
// must pass the MANI-Rank audit within delta, and the PD loss the program
// reports must match the one computed here from the precedence matrix.
type checker struct {
	n     int
	w     *ranking.Precedence
	tab   *attribute.Table
	delta float64
}

func newChecker(p ranking.Profile, tab *attribute.Table, delta float64) (*checker, error) {
	w, err := ranking.NewPrecedence(p)
	if err != nil {
		return nil, err
	}
	return &checker{n: p.N(), w: w, tab: tab, delta: delta}, nil
}

// pdTolerance absorbs the rounding of a PD loss sent through JSON.
const pdTolerance = 1e-9

// verify checks one answer; parent is the request span the audit is
// recorded under.
func (c *checker) verify(tr *tracer, parent int64, r []int, fair, partial bool, reportedPD float64) answer {
	if partial {
		return answer{fail: "partial"}
	}
	if !isPermutation(r, c.n) {
		return answer{fail: "invalid"}
	}
	if fair {
		_, end := tr.begin("fairness.Audit", parent)
		rep := fairness.Audit(r, c.tab)
		end()
		if !rep.Satisfies(c.delta) {
			return answer{fail: "unfair"}
		}
	}
	pd := c.w.PDLoss(r)
	if math.Abs(pd-reportedPD) > pdTolerance {
		return answer{fail: "pd_mismatch"}
	}
	return answer{pdLoss: pd}
}

// isPermutation reports whether r ranks each of 0..n-1 exactly once.
func isPermutation(r []int, n int) bool {
	if len(r) != n {
		return false
	}
	seen := make([]bool, n)
	for _, c := range r {
		if c < 0 || c >= n || seen[c] {
			return false
		}
		seen[c] = true
	}
	return true
}

// meanPD is the mean PD loss of the answers that passed, summed in send
// order so that one seed always gives the same figure to the last digit.
func meanPD(as []answer) float64 {
	sum, n := 0.0, 0
	for _, a := range as {
		if a.ok() {
			sum += a.pdLoss
			n++
		}
	}
	return frac(sum, float64(n))
}

// okFrac is the share of all requests in the phases that passed every check.
func okFrac(phases ...*phaseStats) float64 {
	ok, sent := 0, 0
	for _, p := range phases {
		ok += p.OK
		sent += p.Sent
	}
	return frac(float64(ok), float64(sent))
}
