package fairness

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"manirank/internal/attribute"
	"manirank/internal/ranking"
)

// fprBrute computes FPR by explicit pair enumeration (paper Def. 4) as an
// oracle for the O(n) scan.
func fprBrute(r ranking.Ranking, a *attribute.Attribute, v int) float64 {
	n := len(r)
	size := 0
	for _, g := range a.Of {
		if g == v {
			size++
		}
	}
	m := MixedPairs(size, n)
	if m == 0 {
		return 0.5
	}
	wins := 0
	for i := 0; i < n; i++ {
		if a.Of[r[i]] != v {
			continue
		}
		for j := i + 1; j < n; j++ {
			if a.Of[r[j]] != v {
				wins++
			}
		}
	}
	return float64(wins) / float64(m)
}

func randomAttr(n, domain int, rng *rand.Rand) *attribute.Attribute {
	values := make([]string, domain)
	for i := range values {
		values[i] = string(rune('A' + i))
	}
	of := make([]int, n)
	for i := range of {
		of[i] = rng.Intn(domain)
	}
	a, err := attribute.NewAttribute("attr", values, of)
	if err != nil {
		panic(err)
	}
	return a
}

func TestGroupFPRsMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		domain := 2 + rng.Intn(5)
		a := randomAttr(n, domain, rng)
		r := ranking.Random(n, rng)
		fprs := GroupFPRs(r, a)
		for v := 0; v < domain; v++ {
			if math.Abs(fprs[v]-fprBrute(r, a, v)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFPRRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		a := randomAttr(n, 2+rng.Intn(4), rng)
		for _, fpr := range GroupFPRs(ranking.Random(n, rng), a) {
			if fpr < 0 || fpr > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFPRExtremes(t *testing.T) {
	// Group A (candidates 0,1) wholly on top, group B wholly at the bottom.
	a, err := attribute.NewAttribute("g", []string{"A", "B"}, []int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	r := ranking.Ranking{0, 1, 2, 3}
	fprs := GroupFPRs(r, a)
	if fprs[0] != 1 {
		t.Errorf("top group FPR = %v, want 1", fprs[0])
	}
	if fprs[1] != 0 {
		t.Errorf("bottom group FPR = %v, want 0", fprs[1])
	}
	if got := ARP(r, a); got != 1 {
		t.Errorf("ARP = %v, want 1", got)
	}
}

func TestFPRParityAtHalf(t *testing.T) {
	// Perfect alternation of a balanced binary group: parity.
	a, err := attribute.NewAttribute("g", []string{"A", "B"}, []int{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Ranking A B B A gives each group 2 mixed wins out of 4.
	r := ranking.Ranking{0, 1, 3, 2}
	fprs := GroupFPRs(r, a)
	if fprs[0] != 0.5 || fprs[1] != 0.5 {
		t.Fatalf("FPRs = %v, want [0.5 0.5]", fprs)
	}
	if got := ARP(r, a); got != 0 {
		t.Errorf("ARP = %v, want 0", got)
	}
}

func TestFPRComplementOfBinaryGroupsSumsToOne(t *testing.T) {
	// For exactly two groups every mixed pair is won by one of them, so
	// wins_A + wins_B = |A||B| and (FPR_A + FPR_B) = 1 when sizes are equal
	// (omega_M is the same). More generally wins ratios complement.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 * (1 + rng.Intn(15))
		of := make([]int, n)
		for i := 0; i < n/2; i++ {
			of[i] = 1
		}
		rng.Shuffle(n, func(i, j int) { of[i], of[j] = of[j], of[i] })
		a, _ := attribute.NewAttribute("g", []string{"A", "B"}, of)
		fprs := GroupFPRs(ranking.Random(n, rng), a)
		return math.Abs(fprs[0]+fprs[1]-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyGroupNeutral(t *testing.T) {
	a, err := attribute.NewAttribute("g", []string{"A", "B", "C"}, []int{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	fprs := GroupFPRs(ranking.New(4), a)
	if fprs[2] != 0.5 {
		t.Fatalf("empty group FPR = %v, want 0.5", fprs[2])
	}
}

func TestUniversalGroupNeutral(t *testing.T) {
	a, err := attribute.NewAttribute("g", []string{"A"}, []int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	fprs := GroupFPRs(ranking.New(3), a)
	if fprs[0] != 0.5 {
		t.Fatalf("universal group FPR = %v, want 0.5", fprs[0])
	}
	if got := ARP(ranking.New(3), a); got != 0 {
		t.Fatalf("single-group ARP = %v, want 0", got)
	}
}

func paperTable(t *testing.T, n int) *attribute.Table {
	t.Helper()
	gender := make([]int, n)
	race := make([]int, n)
	for c := 0; c < n; c++ {
		gender[c] = c % 3
		race[c] = (c / 3) % 5
	}
	g, err := attribute.NewAttribute("Gender", []string{"M", "NB", "W"}, gender)
	if err != nil {
		t.Fatal(err)
	}
	r, err := attribute.NewAttribute("Race", []string{"A", "B", "C", "D", "E"}, race)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := attribute.NewTable(n, g, r)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestAuditAndSatisfies(t *testing.T) {
	tab := paperTable(t, 30)
	rng := rand.New(rand.NewSource(9))
	r := ranking.Random(30, rng)
	rep := Audit(r, tab)
	if len(rep.ARPs) != 2 {
		t.Fatalf("audit has %d ARPs, want 2", len(rep.ARPs))
	}
	if rep.MaxViolation() < rep.IRP {
		t.Error("MaxViolation below IRP")
	}
	if !rep.Satisfies(1.0) {
		t.Error("every ranking satisfies Delta = 1")
	}
	if rep.Satisfies(rep.MaxViolation() - 0.01) {
		t.Error("Satisfies should fail below the max violation")
	}
	if SatisfiesMANIRank(r, tab, 1.0) != true {
		t.Error("SatisfiesMANIRank at Delta=1 must hold")
	}
	if got, want := SatisfiesMANIRank(r, tab, rep.MaxViolation()), true; got != want {
		t.Error("SatisfiesMANIRank at exactly the max violation must hold")
	}
}

func TestIRPMatchesIntersectionARP(t *testing.T) {
	tab := paperTable(t, 45)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		r := ranking.Random(45, rng)
		if got, want := IRP(r, tab), ARP(r, tab.Intersection()); math.Abs(got-want) > 1e-15 {
			t.Fatalf("IRP = %v, intersection ARP = %v", got, want)
		}
	}
}

func TestThresholds(t *testing.T) {
	th := Uniform(0.1)
	if th.ForAttr("Gender") != 0.1 || th.ForInter() != 0.1 {
		t.Fatal("Uniform thresholds wrong")
	}
	th.PerAttr = map[string]float64{"Gender": 0.2}
	th.Inter = 0.05
	if th.ForAttr("Gender") != 0.2 {
		t.Error("per-attribute override ignored")
	}
	if th.ForAttr("Race") != 0.1 {
		t.Error("default should apply to Race")
	}
	if th.ForInter() != 0.05 {
		t.Error("intersection override ignored")
	}
}

func TestReportFormatting(t *testing.T) {
	tab := paperTable(t, 30)
	rep := Audit(ranking.New(30), tab)
	if rep.String() == "" {
		t.Error("empty String()")
	}
	s := FormatReport(rep, tab)
	if s == "" {
		t.Error("empty FormatReport")
	}
}

func TestMixedPairs(t *testing.T) {
	cases := []struct{ size, n, want int }{
		{0, 10, 0}, {10, 10, 0}, {3, 10, 21}, {5, 10, 25},
	}
	for _, tc := range cases {
		if got := MixedPairs(tc.size, tc.n); got != tc.want {
			t.Errorf("MixedPairs(%d, %d) = %d, want %d", tc.size, tc.n, got, tc.want)
		}
	}
}
