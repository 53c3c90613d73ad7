package kemeny

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"manirank/internal/ranking"
)

// unprunedBestMove is bestMove without the early-exit bound: each sweep
// reads every margin and ends only at the ranking's edge or on a blocked
// feasibility probe. It ignores sc.up and sc.dn. It is the reference the
// pruned sweeps must match.
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

// recountMass derives every candidate's inversion mass in r from its
// definition, one Margin read per term: up[c] sums the negative Margin(c, b)
// over the b above c, dn[c] the negative −Margin(c, b) over the b below c.
func recountMass(w *ranking.Precedence, r ranking.Ranking) (up, dn []int) {
	up, dn = make([]int, len(r)), make([]int, len(r))
	for i, c := range r {
		for j, b := range r {
			if j < i {
				up[c] += min(0, w.Margin(c, b))
			} else if j > i {
				dn[c] += min(0, -w.Margin(c, b))
			}
		}
	}
	return up, dn
}

// TestBestMovePruningMatchesUnpruned checks that the sweeps' early exit is
// exact and that its bounds stay current: on random small instances —
// constrained and unconstrained, over plain, weighted and unanimous
// profiles — every bestMove of full descents returns the same (to, delta)
// as the unpruned sweep, and after every move the scratch applies, whether
// the descent's or a perturbation's (searchScratch.move), its up and dn
// equal a recount from the definition. Each instance descends, perturbs one
// proposal at a time, and descends again, three times over.
func TestBestMovePruningMatchesUnpruned(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	calls, perturbMoves := 0, 0
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
			if cost := sc.sync(w, cons, r); cost != w.KemenyCost(r) {
				t.Fatalf("%s: sync returned cost %d, KemenyCost %d", name, cost, w.KemenyCost(r))
			}
			checkMass := func(after string) {
				t.Helper()
				up, dn := recountMass(w, r)
				if !slices.Equal(sc.up, up) || !slices.Equal(sc.dn, dn) {
					t.Fatalf("%s: after %s the maintained bounds drifted\nup %v, recount %v\ndn %v, recount %v\nranking %v",
						name, after, sc.up, up, sc.dn, dn, r)
				}
			}
			checkMass("sync")
			for round := 0; round < 3; round++ {
				if round > 0 {
					for s := 0; s < 6; s++ {
						before := slices.Clone(r)
						sc.perturbFeasibleDelta(w, r, 1, rng)
						if !slices.Equal(before, r) {
							perturbMoves++
						}
						checkMass("a perturbation")
					}
				}
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
						sc.move(w, r, i, to)
						checkMass(fmt.Sprintf("the descent move %d -> %d", i, to))
						improved = true
					}
				}
			}
		}
	}
	if calls < 1000 || perturbMoves < 100 {
		t.Fatalf("only %d bestMove calls compared and %d perturbation moves checked", calls, perturbMoves)
	}
}
