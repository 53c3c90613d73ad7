// Package fairness implements the group fairness criteria of the MANI-Rank
// paper (Section II-B): the Favored Pair Representation score (FPR, paper
// Def. 4), Attribute Rank Parity (ARP, Def. 5), Intersectional Rank Parity
// (IRP, Def. 6), and the combined MANI-Rank criterion (Def. 7) that bounds
// every ARP and the IRP by a threshold Delta.
//
// All scores are computed in O(n) per attribute by a single top-to-bottom
// scan of the ranking, making fairness audits cheap even inside the repair
// loop of Make-MR-Fair.
package fairness

import (
	"fmt"
	"strings"

	"manirank/internal/attribute"
	"manirank/internal/ranking"
)

// MixedPairs returns omega_M(G) = |G| * (|X| - |G|), the number of mixed
// pairs a group of the given size participates in within a ranking over n
// candidates (paper Eq. 3).
func MixedPairs(groupSize, n int) int { return groupSize * (n - groupSize) }

// GroupFPRs returns the FPR score of every group of attribute a (indexed by
// attribute value) in ranking r (paper Def. 4).
//
// FPR_G = (mixed pairs in which a member of G is favored) / omega_M(G).
// FPR is 0 when the group sits entirely at the bottom, 1 entirely at the top,
// and exactly 1/2 at statistical parity. Empty groups and groups covering
// the whole database have no mixed pairs; their FPR is reported as 0.5
// (perfectly neutral) so they never drive a parity violation.
func GroupFPRs(r ranking.Ranking, a *attribute.Attribute) []float64 {
	n := len(r)
	sizes := a.GroupSizes()
	wins := make([]int, a.DomainSize())
	// seen[v] = members of group v encountered so far (above current pos).
	seen := make([]int, a.DomainSize())
	// Walking top -> bottom: the candidate c at position i wins against the
	// (n-1-i) candidates below it, of which (sizes[v]-seen[v]-1) share its
	// group v and are therefore not mixed pairs.
	for i, c := range r {
		v := a.Of[c]
		below := n - 1 - i
		sameBelow := sizes[v] - seen[v] - 1
		wins[v] += below - sameBelow
		seen[v]++
	}
	fprs := make([]float64, a.DomainSize())
	for v := range fprs {
		m := MixedPairs(sizes[v], n)
		if m == 0 {
			fprs[v] = 0.5
			continue
		}
		fprs[v] = float64(wins[v]) / float64(m)
	}
	return fprs
}

// ARP returns the Attribute Rank Parity of attribute a in ranking r (paper
// Def. 5): the maximum absolute FPR difference over all pairs of the
// attribute's groups, i.e. max FPR - min FPR. ARP is 0 at perfect statistical
// parity and 1 when one group is entirely on top and another entirely at the
// bottom.
func ARP(r ranking.Ranking, a *attribute.Attribute) float64 {
	return spread(GroupFPRs(r, a))
}

// IRP returns the Intersectional Rank Parity (paper Def. 6) of ranking r
// over the table's attribute intersection.
func IRP(r ranking.Ranking, t *attribute.Table) float64 {
	return ARP(r, t.Intersection())
}

func spread(fprs []float64) float64 {
	if len(fprs) == 0 {
		return 0
	}
	lo, hi := fprs[0], fprs[0]
	for _, f := range fprs[1:] {
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	return hi - lo
}

// Report is a full MANI-Rank fairness audit of one ranking: per-attribute
// group FPR scores and parity, plus the intersectional parity.
type Report struct {
	// ARPs[i] is the Attribute Rank Parity of table attribute i.
	ARPs []float64
	// FPRs[i][v] is the FPR score of value v's group for table attribute i.
	FPRs [][]float64
	// IRP is the Intersectional Rank Parity.
	IRP float64
	// InterFPRs holds the FPR of each occupied intersectional group.
	InterFPRs []float64
}

// Audit computes a fairness Report for ranking r over table t.
func Audit(r ranking.Ranking, t *attribute.Table) Report {
	attrs := t.Attrs()
	rep := Report{
		ARPs: make([]float64, len(attrs)),
		FPRs: make([][]float64, len(attrs)),
	}
	for i, a := range attrs {
		rep.FPRs[i] = GroupFPRs(r, a)
		rep.ARPs[i] = spread(rep.FPRs[i])
	}
	rep.InterFPRs = GroupFPRs(r, t.Intersection())
	rep.IRP = spread(rep.InterFPRs)
	return rep
}

// MaxViolation returns the largest ARP/IRP in the report; a ranking satisfies
// MANI-Rank at threshold delta iff MaxViolation() <= delta.
func (rep Report) MaxViolation() float64 {
	max := rep.IRP
	for _, v := range rep.ARPs {
		if v > max {
			max = v
		}
	}
	return max
}

// Satisfies reports whether the audited ranking meets MANI-Rank group
// fairness (paper Def. 7) at threshold delta.
func (rep Report) Satisfies(delta float64) bool { return rep.MaxViolation() <= delta+Eps }

// Eps absorbs float rounding when comparing parity scores against a fairness
// threshold Delta; all scores are ratios of small integers so 1e-12 is far
// below their resolution. Every feasibility comparison in the module —
// fairness audits, kemeny.Feasible, core's repair targets — shares this one
// constant so the feasibility band cannot drift between repair and descent.
const Eps = 1e-12

// SatisfiesMANIRank reports whether ranking r satisfies MANI-Rank group
// fairness at threshold delta over table t: ARP_pk <= delta for every
// protected attribute and IRP <= delta (paper Def. 7).
func SatisfiesMANIRank(r ranking.Ranking, t *attribute.Table, delta float64) bool {
	for _, a := range t.Attrs() {
		if ARP(r, a) > delta+Eps {
			return false
		}
	}
	return IRP(r, t) <= delta+Eps
}

// Thresholds carries per-attribute fairness targets for the customized
// MANI-Rank variant (paper Section II-B, "Customizing Group Fairness"). A
// missing entry falls back to Default.
type Thresholds struct {
	// Default applies to every attribute and the intersection unless
	// overridden.
	Default float64
	// PerAttr maps attribute name -> threshold.
	PerAttr map[string]float64
	// Inter overrides the intersection threshold when >= 0; use -1 to fall
	// back to Default.
	Inter float64
}

// Uniform returns Thresholds applying delta everywhere.
func Uniform(delta float64) Thresholds {
	return Thresholds{Default: delta, Inter: -1}
}

// ForAttr returns the threshold for the named attribute.
func (th Thresholds) ForAttr(name string) float64 {
	if v, ok := th.PerAttr[name]; ok {
		return v
	}
	return th.Default
}

// ForInter returns the threshold for the intersection.
func (th Thresholds) ForInter() float64 {
	if th.Inter >= 0 {
		return th.Inter
	}
	return th.Default
}

// SatisfiesThresholds reports whether r satisfies the per-attribute
// customized MANI-Rank criteria.
func SatisfiesThresholds(r ranking.Ranking, t *attribute.Table, th Thresholds) bool {
	for _, a := range t.Attrs() {
		if ARP(r, a) > th.ForAttr(a.Name)+Eps {
			return false
		}
	}
	return IRP(r, t) <= th.ForInter()+Eps
}

// String renders the report as a compact single-line summary, e.g.
// "ARP[Gender]=0.140 ARP[Race]=0.300 IRP=0.520". Attribute names are not
// stored in the report, so indices are used; FormatReport prints names.
func (rep Report) String() string {
	var b strings.Builder
	for i, v := range rep.ARPs {
		fmt.Fprintf(&b, "ARP[%d]=%.3f ", i, v)
	}
	fmt.Fprintf(&b, "IRP=%.3f", rep.IRP)
	return b.String()
}

// FormatReport renders a human-readable audit with attribute and group
// names, one line per attribute plus the intersection line.
func FormatReport(rep Report, t *attribute.Table) string {
	var b strings.Builder
	for i, a := range t.Attrs() {
		fmt.Fprintf(&b, "%-12s ARP=%.3f ", a.Name, rep.ARPs[i])
		for v, f := range rep.FPRs[i] {
			fmt.Fprintf(&b, " %s=%.3f", a.Values[v], f)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-12s IRP=%.3f\n", "Intersection", rep.IRP)
	return b.String()
}
