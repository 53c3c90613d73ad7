package core

import (
	"fmt"
	"math/rand"
	"testing"

	"manirank/internal/attribute"
	"manirank/internal/fairness"
	"manirank/internal/ranking"
)

// randomTable builds an n-candidate table whose attributes have the given
// domain sizes, with group memberships drawn from rng.
func randomTable(t *testing.T, n int, domains []int, rng *rand.Rand) *attribute.Table {
	t.Helper()
	attrs := make([]*attribute.Attribute, len(domains))
	for ai, g := range domains {
		values := make([]string, g)
		for v := range values {
			values[v] = fmt.Sprintf("a%d_v%d", ai, v)
		}
		of := make([]int, n)
		// Guarantee every value occurs so DomainSize matches the value list.
		for c := range of {
			if c < g {
				of[c] = c
			} else {
				of[c] = rng.Intn(g)
			}
		}
		a, err := attribute.NewAttribute(fmt.Sprintf("attr%d", ai), values, of)
		if err != nil {
			t.Fatal(err)
		}
		attrs[ai] = a
	}
	tab, err := attribute.NewTable(n, attrs...)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// recomputeWins rebuilds the mixed-pairs-won counter of every group of a
// from scratch — the same quantity fairness.GroupFPRs normalises — so the
// engine's incremental ints can be compared exactly, not just via floats.
func recomputeWins(r ranking.Ranking, a *attribute.Attribute) []int {
	n := len(r)
	sizes := a.GroupSizes()
	wins := make([]int, a.DomainSize())
	seen := make([]int, a.DomainSize())
	for i, c := range r {
		v := a.Of[c]
		below := n - 1 - i
		sameBelow := sizes[v] - seen[v] - 1
		wins[v] += below - sameBelow
		seen[v]++
	}
	return wins
}

// TestParityEngineMatchesFullRecomputeUnderSwaps is the ROADMAP'd property
// test of the Make-MR-Fair engine: across long random swap sequences, the
// engine's incremental wins / FPR / spread state must match a full
// fairness.GroupFPRs recompute after every swap.
func TestParityEngineMatchesFullRecomputeUnderSwaps(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		domains []int
		swaps   int
	}{
		{"binary_small", 12, []int{2}, 300},
		{"gender_race", 30, []int{2, 3}, 500},
		{"paper_shape", 45, []int{3, 5}, 500},
		{"three_attrs", 24, []int{2, 2, 4}, 400},
		{"wide_domain", 40, []int{8}, 400},
	}
	for ci, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(900 + ci)))
			tab := randomTable(t, tc.n, tc.domains, rng)
			targets := Targets(tab, 0.1) // every attribute + the intersection
			start := ranking.Random(tc.n, rng)
			eng := newParityEngine(start, targets)
			for s := 0; s < tc.swaps; s++ {
				i, j := rng.Intn(tc.n), rng.Intn(tc.n)
				if i == j {
					continue
				}
				eng.swap(i, j)
				if err := eng.r.Validate(); err != nil {
					t.Fatalf("swap %d (%d,%d): engine ranking corrupt: %v", s, i, j, err)
				}
				for k, tg := range targets {
					wantWins := recomputeWins(eng.r, tg.Attr)
					fprs := fairness.GroupFPRs(eng.r, tg.Attr)
					for v := range wantWins {
						if eng.wins[k][v] != wantWins[v] {
							t.Fatalf("swap %d (%d,%d) target %d group %d: incremental wins %d, recompute %d",
								s, i, j, k, v, eng.wins[k][v], wantWins[v])
						}
						if got, want := eng.fpr(k, v), fprs[v]; got != want {
							t.Fatalf("swap %d target %d group %d: incremental FPR %v, GroupFPRs %v",
								s, k, v, got, want)
						}
					}
					if got, want := eng.spread(k), fairness.ARP(eng.r, tg.Attr); got != want {
						t.Fatalf("swap %d target %d: incremental spread %v, ARP recompute %v", s, k, got, want)
					}
				}
			}
		})
	}
}

// TestParityEnginePredictionsMatchApplication cross-checks the engine's
// swap previews (potentialAfter / bandAfter) against actually performing the
// swap, over random positions — the repair loop trusts these previews to
// pick swaps without mutating the ranking.
func TestParityEnginePredictionsMatchApplication(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tab := randomTable(t, 26, []int{2, 3}, rng)
	targets := Targets(tab, 0.15)
	eng := newParityEngine(ranking.Random(26, rng), targets)
	for s := 0; s < 300; s++ {
		i, j := rng.Intn(26), rng.Intn(26)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		wantP := eng.potentialAfter(i, j)
		wantB := eng.bandAfter(i, j)
		eng.swap(i, j)
		if got := eng.potential(); got != wantP {
			t.Fatalf("swap %d (%d,%d): potentialAfter predicted %v, actual %v", s, i, j, wantP, got)
		}
		if got := eng.band(); got != wantB {
			t.Fatalf("swap %d (%d,%d): bandAfter predicted %v, actual %v", s, i, j, wantB, got)
		}
	}
}
