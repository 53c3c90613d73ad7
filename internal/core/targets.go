// Package core implements the paper's primary contribution: the MANI-Rank
// fairness targets (Target, one type with the kemeny package's Constraint),
// the Make-MR-Fair pairwise repair algorithm (paper Algorithm 2), and the
// four MFCR solvers Fair-Kemeny, Fair-Copeland, Fair-Schulze and Fair-Borda
// (paper Section III), plus the Price of Fairness measure (Section III-C).
//
// Every repair runs one loop (repair): MakeMRFair and Fair-Kemeny's
// incumbent with the paper's swap pick, the MakeMRFairWithPolicy ablation
// with that pick or none, and RepairToLevels with adjacent swaps.
//
// The solvers consume a precomputed ranking.Precedence (FairBordaW,
// FairCopelandW, FairSchulzeW, FairKemenyW) — the entry points the Engine
// registry and the serving layer's shared precedence-matrix tier feed, so
// eight methods over one profile pay one O(n²·m) construction. FairKemenyW
// threads a context.Context through every search stage and returns a
// feasible best-so-far ranking on cancellation. FairBorda alone keeps a
// profile form: its O(n·|R|) path needs no matrix at all.
package core

import (
	"manirank/internal/attribute"
	"manirank/internal/fairness"
	"manirank/internal/kemeny"
	"manirank/internal/ranking"
)

// Target bounds the FPR spread of one attribute's groups by Delta. A full
// MANI-Rank requirement (paper Def. 7) is one Target per protected attribute
// plus one for the intersection pseudo-attribute. It is the kemeny package's
// Constraint, so the repair and the constrained searches share one target
// list.
type Target = kemeny.Constraint

// Targets returns the full MANI-Rank target set for table t at a uniform
// threshold delta: every protected attribute and the intersection.
func Targets(t *attribute.Table, delta float64) []Target {
	return TargetsWithThresholds(t, fairness.Uniform(delta))
}

// TargetsWithThresholds returns the customized MANI-Rank target set (paper
// Section II-B, "Customizing Group Fairness") honouring per-attribute
// thresholds.
func TargetsWithThresholds(t *attribute.Table, th fairness.Thresholds) []Target {
	out := make([]Target, 0, len(t.Attrs())+1)
	for _, a := range t.Attrs() {
		out = append(out, Target{Attr: a, Delta: th.ForAttr(a.Name)})
	}
	out = append(out, Target{Attr: t.Intersection(), Delta: th.ForInter()})
	return out
}

// AttributeTargets returns targets constraining only the protected
// attributes (no intersection) — the "protected attribute only" alternative
// of the paper's Figure 3a study.
func AttributeTargets(t *attribute.Table, delta float64) []Target {
	out := make([]Target, 0, len(t.Attrs()))
	for _, a := range t.Attrs() {
		out = append(out, Target{Attr: a, Delta: delta})
	}
	return out
}

// IntersectionTarget returns the single target constraining only the
// intersection — the "intersection only" alternative of Figure 3b.
func IntersectionTarget(t *attribute.Table, delta float64) []Target {
	return []Target{{Attr: t.Intersection(), Delta: delta}}
}

// TargetsWithSubsets extends the full MANI-Rank target set with additional
// parity constraints on specific subsets of protected attributes (paper
// Section II-B: "Definition 7 can be extended to support specific subsets of
// protected attribute combinations"). Each subset is a list of attribute
// names whose joint intersection must also satisfy delta.
func TargetsWithSubsets(t *attribute.Table, delta float64, subsets ...[]string) ([]Target, error) {
	out := Targets(t, delta)
	for _, names := range subsets {
		sub, err := t.IntersectionOf(names...)
		if err != nil {
			return nil, err
		}
		out = append(out, Target{Attr: sub, Delta: delta})
	}
	return out, nil
}

// MaxViolation returns the largest amount by which r exceeds any target's
// threshold (0 when all targets hold) along with the index of the worst
// target (-1 when none is violated).
func MaxViolation(r ranking.Ranking, targets []Target) (float64, int) {
	worst, idx := 0.0, -1
	for i, tg := range targets {
		// Parity scores are ratios of small integers; overages below 1e-12
		// are float rounding, not violations.
		if over := fairness.ARP(r, tg.Attr) - tg.Delta; over > fairness.Eps && over > worst {
			worst, idx = over, i
		}
	}
	return worst, idx
}
