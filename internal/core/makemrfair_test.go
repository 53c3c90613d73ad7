package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"manirank/internal/attribute"
	"manirank/internal/fairness"
	"manirank/internal/kemeny"
	"manirank/internal/ranking"
)

// testTable builds a Gender(3) x Race(5) table with n candidates assigned
// round-robin (balanced intersections when n is a multiple of 15).
func testTable(tb testing.TB, n int) *attribute.Table {
	tb.Helper()
	gender := make([]int, n)
	race := make([]int, n)
	for c := 0; c < n; c++ {
		gender[c] = c % 3
		race[c] = (c / 3) % 5
	}
	g, err := attribute.NewAttribute("Gender", []string{"Man", "Non-Binary", "Woman"}, gender)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := attribute.NewAttribute("Race", []string{"A", "B", "C", "D", "E"}, race)
	if err != nil {
		tb.Fatal(err)
	}
	t, err := attribute.NewTable(n, g, r)
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

func TestMakeMRFairPostcondition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Intersectional groups need at least 2 members for tight deltas to
		// be satisfiable (singleton groups force IRP = 1), so n >= 30.
		n := 15 * (2 + rng.Intn(3))
		tab := testTable(t, n)
		delta := 0.05 + rng.Float64()*0.4
		targets := Targets(tab, delta)
		out, err := MakeMRFair(ranking.Random(n, rng), targets)
		if err != nil {
			return false
		}
		return out.IsValid() && kemeny.Feasible(out, targets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMakeMRFairIdempotentWhenAlreadyFair(t *testing.T) {
	tab := testTable(t, 30)
	rng := rand.New(rand.NewSource(1))
	targets := Targets(tab, 0.2)
	r, err := MakeMRFair(ranking.Random(30, rng), targets)
	if err != nil {
		t.Fatal(err)
	}
	again, err := MakeMRFair(r, targets)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Equal(r) {
		t.Fatal("MakeMRFair changed an already-fair ranking")
	}
}

func TestMakeMRFairDoesNotMutateInput(t *testing.T) {
	tab := testTable(t, 30)
	rng := rand.New(rand.NewSource(2))
	r := ranking.Random(30, rng)
	orig := r.Clone()
	if _, err := MakeMRFair(r, Targets(tab, 0.05)); err != nil {
		t.Fatal(err)
	}
	if !r.Equal(orig) {
		t.Fatal("input ranking mutated")
	}
}

func TestMakeMRFairFromBlockRanking(t *testing.T) {
	// Start maximally unfair: intersectional blocks in order.
	tab := testTable(t, 45)
	inter := tab.Intersection()
	var r ranking.Ranking
	for v := 0; v < inter.DomainSize(); v++ {
		r = append(r, inter.Group(v)...)
	}
	if got := fairness.IRP(r, tab); got != 1 {
		t.Fatalf("block ranking IRP = %v, want 1", got)
	}
	for _, delta := range []float64{0.5, 0.25, 0.1, 0.05} {
		out, err := MakeMRFair(r, Targets(tab, delta))
		if err != nil {
			t.Fatalf("delta=%v: %v", delta, err)
		}
		rep := fairness.Audit(out, tab)
		if rep.MaxViolation() > delta+1e-9 {
			t.Fatalf("delta=%v: max violation %v", delta, rep.MaxViolation())
		}
	}
}

func TestMakeMRFairSmallerDeltaCostsMorePDLoss(t *testing.T) {
	tab := testTable(t, 45)
	rng := rand.New(rand.NewSource(4))
	p := make(ranking.Profile, 20)
	biased := blockRanking(tab)
	for i := range p {
		p[i] = biased.Clone()
	}
	var prev float64 = -1
	for _, delta := range []float64{0.5, 0.3, 0.1} {
		out, err := MakeMRFair(biased, Targets(tab, delta))
		if err != nil {
			t.Fatal(err)
		}
		loss := ranking.PDLoss(p, out)
		if prev >= 0 && loss < prev-1e-9 {
			t.Fatalf("delta=%v: PD loss %v decreased below %v at looser delta", delta, loss, prev)
		}
		prev = loss
	}
	_ = rng
}

func blockRanking(tab *attribute.Table) ranking.Ranking {
	inter := tab.Intersection()
	var r ranking.Ranking
	for v := 0; v < inter.DomainSize(); v++ {
		r = append(r, inter.Group(v)...)
	}
	return r
}

func TestMakeMRFairPerTargetDeltas(t *testing.T) {
	tab := testTable(t, 45)
	targets := []Target{
		{Attr: tab.Attr("Gender"), Delta: 0.05},
		{Attr: tab.Attr("Race"), Delta: 0.3},
		{Attr: tab.Intersection(), Delta: 0.5},
	}
	out, err := MakeMRFair(blockRanking(tab), targets)
	if err != nil {
		t.Fatal(err)
	}
	if got := fairness.ARP(out, tab.Attr("Gender")); got > 0.05+1e-9 {
		t.Errorf("Gender ARP = %v, want <= 0.05", got)
	}
	if got := fairness.ARP(out, tab.Attr("Race")); got > 0.3+1e-9 {
		t.Errorf("Race ARP = %v, want <= 0.3", got)
	}
	if got := fairness.IRP(out, tab); got > 0.5+1e-9 {
		t.Errorf("IRP = %v, want <= 0.5", got)
	}
}

func TestMakeMRFairRejectsBadInputs(t *testing.T) {
	tab := testTable(t, 30)
	if _, err := MakeMRFair(ranking.Ranking{0, 0, 1}, Targets(tab, 0.1)); err == nil {
		t.Error("invalid ranking accepted")
	}
	small := testTable(t, 15)
	if _, err := MakeMRFair(ranking.New(30), Targets(small, 0.1)); err == nil {
		t.Error("mismatched table size accepted")
	}
	bad := Targets(tab, 0.1)
	bad[0].Delta = -0.5
	if _, err := MakeMRFair(ranking.New(30), bad); err == nil {
		t.Error("negative delta accepted")
	}
}

func TestMakeMRFairUnsatisfiableSingletonGroups(t *testing.T) {
	// With n = 15 every intersectional group is a singleton: the top
	// candidate's group always has FPR 1 and the bottom's 0, so IRP = 1 for
	// every ranking and Delta < 1 must be reported unrepairable.
	tab := testTable(t, 15)
	rng := rand.New(rand.NewSource(8))
	_, err := MakeMRFair(ranking.Random(15, rng), Targets(tab, 0.3))
	if err == nil {
		t.Fatal("singleton intersection groups with Delta=0.3 should be unrepairable")
	}
}

func TestMakeMRFairNoTargetsIsIdentity(t *testing.T) {
	r := ranking.New(20)
	out, err := MakeMRFair(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(r) {
		t.Fatal("no targets should leave ranking unchanged")
	}
}

func TestParityEngineMatchesAudit(t *testing.T) {
	// Incremental win tracking must agree with a fresh audit after a series
	// of random swaps.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 15 * (1 + rng.Intn(3))
		tab := testTable(t, n)
		targets := Targets(tab, 0.1)
		eng := newParityEngine(ranking.Random(n, rng), targets)
		for s := 0; s < 30; s++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			eng.swap(i, j)
		}
		for k, tg := range targets {
			want := fairness.GroupFPRs(eng.r, tg.Attr)
			for v := range want {
				if math.Abs(eng.fpr(k, v)-want[v]) > 1e-12 {
					return false
				}
			}
			if math.Abs(eng.spread(k)-fairness.ARP(eng.r, tg.Attr)) > 1e-12 {
				return false
			}
		}
		return eng.r.IsValid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTargetsHelpers(t *testing.T) {
	tab := testTable(t, 30)
	full := Targets(tab, 0.1)
	if len(full) != 3 {
		t.Fatalf("Targets: %d targets, want 3 (Gender, Race, Intersection)", len(full))
	}
	attrOnly := AttributeTargets(tab, 0.1)
	if len(attrOnly) != 2 {
		t.Fatalf("AttributeTargets: %d, want 2", len(attrOnly))
	}
	interOnly := IntersectionTarget(tab, 0.1)
	if len(interOnly) != 1 || interOnly[0].Attr.Name != "Intersection" {
		t.Fatalf("IntersectionTarget wrong: %+v", interOnly)
	}
	th := fairness.Thresholds{Default: 0.2, PerAttr: map[string]float64{"Gender": 0.05}, Inter: 0.4}
	custom := TargetsWithThresholds(tab, th)
	if custom[0].Delta != 0.05 || custom[1].Delta != 0.2 || custom[2].Delta != 0.4 {
		t.Fatalf("TargetsWithThresholds deltas wrong: %+v", custom)
	}
}

func TestMaxViolation(t *testing.T) {
	tab := testTable(t, 45)
	r := blockRanking(tab)
	v, idx := MaxViolation(r, Targets(tab, 0.1))
	if v <= 0 || idx < 0 {
		t.Fatalf("block ranking should violate: v=%v idx=%d", v, idx)
	}
	if v2, idx2 := MaxViolation(r, Targets(tab, 1.0)); v2 != 0 || idx2 != -1 {
		t.Fatalf("Delta=1: v=%v idx=%d, want 0/-1", v2, idx2)
	}
}
