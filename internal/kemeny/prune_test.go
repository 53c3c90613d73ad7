package kemeny

import (
	"fmt"
	"math/rand"
	"testing"

	"manirank/internal/ranking"
)

// unprunedBestMove is bestMove without the early-exit bound: each sweep
// reads every margin and ends only at the ranking's edge or on a blocked
// feasibility probe. It is the reference the pruned sweeps must match.
func unprunedBestMove(sc *searchScratch, w *ranking.Precedence, r ranking.Ranking, i int) (to, delta int) {
	aud := sc.aud
	c := r[i]
	to = i
	// keep applies bestMove's acceptance rule to target j with delta d and
	// reports whether a blocked probe ends the sweep.
	keep := func(j, d int) (stop bool) {
		if d >= delta {
			return false
		}
		if aud == nil {
			to, delta = j, d
			return false
		}
		ok, blocked := aud.feasibleTo(j)
		if ok {
			to, delta = j, d
		}
		return !ok && blocked
	}
	if aud != nil {
		aud.startWindow(i, true)
	}
	for j, d := i-1, 0; j >= 0; j-- {
		if d += w.Margin(c, r[j]); keep(j, d) {
			break
		}
	}
	if aud != nil {
		aud.startWindow(i, false)
	}
	for j, d := i+1, 0; j < len(r); j++ {
		if d -= w.Margin(c, r[j]); keep(j, d) {
			break
		}
	}
	return to, delta
}

// pruneInstance draws a precedence matrix of the given kind: "plain" counts
// random rankings, "weighted" gives each ranking a weight in 1..9 (so m is
// the total weight), and "unanimous" repeats one ranking (optionally
// weighted), so every margin is exactly ±m — the case where the bound is met
// with equality and an off-by-one stops a sweep too early.
func pruneInstance(kind string, n int, rng *rand.Rand) *ranking.Precedence {
	m := 1 + rng.Intn(7)
	var p ranking.Profile
	if kind == "unanimous" {
		base := ranking.Random(n, rng)
		for k := 0; k < m; k++ {
			p = append(p, base.Clone())
		}
	} else {
		p = randomProfile(n, m, rng)
	}
	if kind == "plain" || (kind == "unanimous" && rng.Intn(2) == 0) {
		return ranking.MustPrecedence(p)
	}
	weights := make([]int, m)
	for k := range weights {
		weights[k] = 1 + rng.Intn(9)
	}
	w, err := ranking.NewWeightedPrecedence(p, weights)
	if err != nil {
		panic(err)
	}
	return w
}

// TestBestMovePruningMatchesUnpruned checks that the sweeps' early exit is
// exact: on random small instances, every bestMove of a full descent —
// constrained and unconstrained, over plain, weighted and unanimous
// profiles — returns the same (to, delta) as the unpruned sweep.
func TestBestMovePruningMatchesUnpruned(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	calls := 0
	for _, kind := range []string{"plain", "weighted", "unanimous"} {
		for trial := 0; trial < 40; trial++ {
			n := 2 + rng.Intn(40)
			w := pruneInstance(kind, n, rng)
			var cons []Constraint
			if trial%2 == 1 && n >= 3 {
				cons = []Constraint{{Attr: binaryAttr(n, rng), Delta: 0.2 + 0.5*rng.Float64()}}
				if rng.Intn(2) == 0 {
					cons = append(cons, Constraint{Attr: ternaryAttr(n, rng), Delta: 0.3 + 0.5*rng.Float64()})
				}
			}
			r := ranking.Random(n, rng)
			for tries := 0; !Feasible(r, cons); tries++ {
				if tries > 2000 {
					cons = nil
				}
				r = ranking.Random(n, rng)
			}
			name := fmt.Sprintf("%s trial %d (n=%d, m=%d, %d constraints)", kind, trial, n, w.Rankings(), len(cons))
			sc := new(searchScratch)
			sc.syncAuditor(cons, r)
			for improved := true; improved; {
				improved = false
				for i := 0; i < n; i++ {
					to, delta := sc.bestMove(w, r, i)
					wantTo, wantDelta := unprunedBestMove(sc, w, r, i)
					calls++
					if to != wantTo || delta != wantDelta {
						t.Fatalf("%s: bestMove(%d) = (%d, %d), unpruned (%d, %d)\nranking %v",
							name, i, to, delta, wantTo, wantDelta, r)
					}
					if delta == 0 {
						continue
					}
					if sc.aud != nil {
						sc.aud.applyMove(i, to)
					}
					r.MoveTo(i, to)
					improved = true
				}
			}
		}
	}
	if calls < 1000 {
		t.Fatalf("only %d bestMove calls compared", calls)
	}
}
