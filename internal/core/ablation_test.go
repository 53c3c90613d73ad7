package core

import (
	"math/rand"
	"testing"

	"manirank/internal/fairness"
	"manirank/internal/kemeny"
	"manirank/internal/ranking"
)

func TestMakeMRFairWithPolicyBothConverge(t *testing.T) {
	tab := testTable(t, 45)
	targets := Targets(tab, 0.1)
	start := blockRanking(tab)
	for _, policy := range []RepairPolicy{PolicyImpactful, PolicyFineGrained} {
		out, swaps, err := MakeMRFairWithPolicy(start, targets, policy)
		if err != nil {
			t.Fatalf("policy %d: %v", policy, err)
		}
		if swaps <= 0 {
			t.Fatalf("policy %d: no swaps on a maximally unfair start", policy)
		}
		if !kemeny.Feasible(out, targets) {
			t.Fatalf("policy %d: output violates targets", policy)
		}
		if !out.IsValid() {
			t.Fatalf("policy %d: invalid permutation", policy)
		}
	}
}

func TestMakeMRFairWithPolicyMatchesDefault(t *testing.T) {
	// The exported MakeMRFair must behave exactly like the Impactful policy.
	tab := testTable(t, 30)
	targets := Targets(tab, 0.15)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		start := ranking.Random(30, rng)
		a, err1 := MakeMRFair(start, targets)
		b, _, err2 := MakeMRFairWithPolicy(start, targets, PolicyImpactful)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error mismatch: %v vs %v", err1, err2)
		}
		if err1 == nil && !a.Equal(b) {
			t.Fatal("MakeMRFair and PolicyImpactful diverge")
		}
	}
}

func TestMakeMRFairWithPolicyRejectsBadInput(t *testing.T) {
	tab := testTable(t, 30)
	if _, _, err := MakeMRFairWithPolicy(ranking.Ranking{0, 0, 1}, Targets(tab, 0.1), PolicyImpactful); err == nil {
		t.Fatal("invalid ranking accepted")
	}
	bad := Targets(tab, 0.1)
	bad[0].Delta = 2
	if _, _, err := MakeMRFairWithPolicy(ranking.New(30), bad, PolicyImpactful); err == nil {
		t.Fatal("delta > 1 accepted")
	}
}

func TestMakeMRFairZeroSwapsWhenFair(t *testing.T) {
	tab := testTable(t, 30)
	targets := Targets(tab, 0.2)
	fair, err := MakeMRFair(blockRanking(tab), targets)
	if err != nil {
		t.Fatal(err)
	}
	_, swaps, err := MakeMRFairWithPolicy(fair, targets, PolicyImpactful)
	if err != nil {
		t.Fatal(err)
	}
	if swaps != 0 {
		t.Fatalf("already-fair ranking needed %d swaps", swaps)
	}
}

func TestRepairToLevelsLandsNearTargets(t *testing.T) {
	tab := testTable(t, 90)
	targets := []Target{
		{Attr: tab.Attr("Gender"), Delta: 0.5},
		{Attr: tab.Attr("Race"), Delta: 0.5},
		{Attr: tab.Intersection(), Delta: 0.75},
	}
	out, err := RepairToLevels(blockRanking(tab), targets)
	if err != nil {
		t.Fatal(err)
	}
	if !out.IsValid() {
		t.Fatal("invalid permutation")
	}
	for _, tg := range targets {
		got := fairness.ARP(out, tg.Attr)
		if got > tg.Delta+1e-9 {
			t.Errorf("%s spread %.3f above target %.2f", tg.Attr.Name, got, tg.Delta)
		}
		// Quantum steps may not land arbitrarily close for tiny groups, but
		// a 0.15 undershoot would mean long strides leaked in.
		if got < tg.Delta-0.15 {
			t.Errorf("%s spread %.3f far below target %.2f", tg.Attr.Name, got, tg.Delta)
		}
	}
}

func TestRepairToLevelsAlreadyFairIsIdentity(t *testing.T) {
	tab := testTable(t, 30)
	targets := Targets(tab, 1.0) // always satisfied
	r := blockRanking(tab)
	out, err := RepairToLevels(r, targets)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(r) {
		t.Fatal("RepairToLevels changed an already-satisfying ranking")
	}
}

func TestRepairToLevelsRejectsInvalidRanking(t *testing.T) {
	tab := testTable(t, 30)
	if _, err := RepairToLevels(ranking.Ranking{0, 0, 1}, Targets(tab, 0.5)); err == nil {
		t.Fatal("invalid ranking accepted")
	}
}

// TestRepairToLevelsRejectsBadTargets: a target attribute covering fewer
// candidates than the ranking, or a Delta outside [0, 1], is an error, not
// an index panic or a silent walk.
func TestRepairToLevelsRejectsBadTargets(t *testing.T) {
	short := Targets(testTable(t, 4), 0.5)
	if _, err := RepairToLevels(ranking.New(30), short); err == nil {
		t.Fatal("target over 4 candidates accepted for a 30-candidate ranking")
	}
	bad := Targets(testTable(t, 30), 0.5)
	bad[0].Delta = -0.1
	if _, err := RepairToLevels(ranking.New(30), bad); err == nil {
		t.Fatal("delta < 0 accepted")
	}
}
