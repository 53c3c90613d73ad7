package manirank_test

import (
	"context"
	"math/rand"
	"testing"

	"manirank"
)

func demoTable(t *testing.T, n int) *manirank.Table {
	t.Helper()
	gender := make([]int, n)
	race := make([]int, n)
	for c := 0; c < n; c++ {
		gender[c] = c % 2
		race[c] = (c / 2) % 2
	}
	tab, err := manirank.NewTable(n,
		manirank.MustAttribute("Gender", []string{"M", "W"}, gender),
		manirank.MustAttribute("Race", []string{"A", "B"}, race),
	)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func demoProfile(t *testing.T, tab *manirank.Table, m int, theta float64, seed int64) manirank.Profile {
	t.Helper()
	n := tab.N()
	// Blocked modal: group A men on top.
	modal := make(manirank.Ranking, 0, n)
	for _, v := range []int{0, 1} {
		for c := 0; c < n; c++ {
			if c%2 == v {
				modal = append(modal, c)
			}
		}
	}
	model, err := manirank.NewMallows(modal, theta)
	if err != nil {
		t.Fatal(err)
	}
	return model.SampleProfile(m, rand.New(rand.NewSource(seed)))
}

// TestPublicAPISolveAndAudit solves every served method through the Engine:
// each returns a valid permutation, and each fair method's output satisfies
// MANI-Rank at the requested threshold.
func TestPublicAPISolveAndAudit(t *testing.T) {
	tab := demoTable(t, 24)
	p := demoProfile(t, tab, 12, 0.5, 1)
	targets := manirank.Targets(tab, 0.15)
	eng, err := manirank.NewEngine(p, manirank.WithTable(tab))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range manirank.Methods() {
		res, err := eng.Solve(context.Background(), m, targets)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if !res.Ranking.IsValid() {
			t.Fatalf("%s returned invalid ranking", m)
		}
		if m.IsFair() && !manirank.SatisfiesMANIRank(res.Ranking, tab, 0.15) {
			t.Fatalf("%s output violates MANI-Rank: %v", m, manirank.Audit(res.Ranking, tab))
		}
	}
}

// TestPublicAPIUnawareAggregators solves the four fairness-unaware methods
// through the Engine without targets; each returns a valid permutation.
func TestPublicAPIUnawareAggregators(t *testing.T) {
	tab := demoTable(t, 16)
	p := demoProfile(t, tab, 8, 0.4, 2)
	eng, err := manirank.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []manirank.Method{
		manirank.MethodKemeny, manirank.MethodBorda, manirank.MethodCopeland, manirank.MethodSchulze,
	} {
		if m.IsFair() {
			t.Fatalf("%s reports itself fair", m)
		}
		res, err := eng.Solve(context.Background(), m, nil)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if !res.Ranking.IsValid() {
			t.Fatalf("%s returned invalid ranking", m)
		}
	}
}

func TestPublicAPIMetrics(t *testing.T) {
	tab := demoTable(t, 8)
	r := manirank.NewRanking(8)
	if got := manirank.KendallTau(r, r.Reverse()); got != 28 {
		t.Fatalf("KendallTau = %d, want 28", got)
	}
	fprs := manirank.FPR(r, tab.Attr("Gender"))
	if len(fprs) != 2 {
		t.Fatal("FPR shape wrong")
	}
	if arp := manirank.ARP(r, tab.Attr("Gender")); arp < 0 || arp > 1 {
		t.Fatal("ARP out of range")
	}
	if irp := manirank.IRP(r, tab); irp < 0 || irp > 1 {
		t.Fatal("IRP out of range")
	}
	rep := manirank.Audit(r, tab)
	if manirank.FormatReport(rep, tab) == "" {
		t.Fatal("empty report")
	}
	p := manirank.Profile{r.Clone(), r.Clone()}
	if loss := manirank.PDLoss(p, r); loss != 0 {
		t.Fatalf("PD loss to own profile = %v", loss)
	}
}

func TestPublicAPIMakeMRFairAndPoF(t *testing.T) {
	tab := demoTable(t, 24)
	p := demoProfile(t, tab, 10, 0.7, 3)
	targets := manirank.Targets(tab, 0.1)
	eng, err := manirank.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Solve(context.Background(), manirank.MethodKemeny, nil)
	if err != nil {
		t.Fatal(err)
	}
	unfair := res.Ranking
	fair, err := manirank.MakeMRFair(unfair, targets)
	if err != nil {
		t.Fatal(err)
	}
	if !manirank.SatisfiesMANIRank(fair, tab, 0.1) {
		t.Fatal("repair failed")
	}
	if pof := manirank.PriceOfFairness(p, fair, unfair); pof < 0 {
		t.Fatalf("PoF = %v < 0", pof)
	}
}

func TestPublicAPIThresholds(t *testing.T) {
	tab := demoTable(t, 24)
	th := manirank.Thresholds{Default: 0.2, PerAttr: map[string]float64{"Gender": 0.05}, Inter: 0.3}
	targets := manirank.TargetsWithThresholds(tab, th)
	if len(targets) != 3 {
		t.Fatalf("%d targets", len(targets))
	}
	if targets[0].Delta != 0.05 || targets[1].Delta != 0.2 || targets[2].Delta != 0.3 {
		t.Fatal("threshold mapping wrong")
	}
}
