// Package manirank is a Go implementation of MANI-Rank — Multiple Attribute
// and Intersectional group fairness for consensus ranking (Cachel,
// Rundensteiner, Harrison; ICDE 2022). It solves the Multi-attribute Fair
// Consensus Ranking (MFCR) problem: combining the preferences of many
// rankers over candidates carrying several categorical protected attributes
// (gender, race, ...) into one consensus ranking that
//
//  1. satisfies MANI-Rank group fairness — the Attribute Rank Parity of
//     every protected attribute and the Intersectional Rank Parity of their
//     combination are bounded by a threshold Delta — and
//  2. minimizes Pairwise Disagreement loss against the base rankings.
//
// # Quick start
//
//	table, _ := manirank.NewTable(4,
//	    manirank.MustAttribute("Gender", []string{"M", "W"}, []int{0, 1, 0, 1}))
//	profile := manirank.Profile{{0, 1, 2, 3}, {1, 0, 3, 2}}
//	engine, _ := manirank.NewEngine(profile, manirank.WithTable(table))
//	res, _ := engine.Solve(ctx, manirank.MethodFairKemeny, manirank.Targets(table, 0.1))
//	// res.Ranking, res.PDLoss, res.Report — the consensus plus its audit.
//
// The Engine is the package's entry point (API v2): constructed once per
// profile, it owns the shared precedence matrix every method consumes and
// resolves Method values through a single registry, so solving several
// methods over one profile pays the O(n²·m) matrix construction once. The
// solver family mirrors the paper: fair-kemeny is exact (branch and bound
// with fairness pruning) for small candidate sets and a constrained local
// search at scale; fair-copeland, fair-schulze and fair-borda run in
// polynomial time using the Make-MR-Fair repair algorithm. Fairness-unaware
// aggregators and the paper's baselines are also registered for comparison.
// Each Solve call is tuned by functional SolveOptions (WithSeed,
// WithExactThreshold, WithWarmStart, ...).
//
// See DESIGN.md (§8 for the Engine architecture and the SolveOption list)
// and EXPERIMENTS.md for the full reproduction of the paper's evaluation.
package manirank

import (
	"manirank/internal/attribute"
	"manirank/internal/core"
	"manirank/internal/fairness"
	"manirank/internal/mallows"
	"manirank/internal/ranking"
)

// Ranking is a strict total order over candidates 0..n-1; index 0 is the top
// position.
type Ranking = ranking.Ranking

// Profile is a set of base rankings over the same candidates (the paper's R).
type Profile = ranking.Profile

// Precedence is the pairwise precedence matrix W of a profile (paper Def. 11).
type Precedence = ranking.Precedence

// Attribute is a categorical protected attribute over the candidate universe.
type Attribute = attribute.Attribute

// Table is the candidate database X: candidates described by one or more
// protected attributes.
type Table = attribute.Table

// Target bounds the FPR spread (parity) of one attribute by Delta; a full
// MANI-Rank requirement is one Target per attribute plus the intersection.
type Target = core.Target

// Report is a complete fairness audit of one ranking: per-group FPR scores,
// per-attribute ARP, and IRP.
type Report = fairness.Report

// Thresholds carries per-attribute fairness targets for customized
// MANI-Rank (paper Section II-B).
type Thresholds = fairness.Thresholds

// MallowsModel is the exponential location-spread distribution over rankings
// used to generate synthetic preference data (paper Section IV-A).
type MallowsModel = mallows.Model

// NewRanking returns the identity ranking over n candidates.
func NewRanking(n int) Ranking { return ranking.New(n) }

// NewAttribute validates and constructs a protected attribute: a value
// domain and each candidate's value index.
func NewAttribute(name string, values []string, of []int) (*Attribute, error) {
	return attribute.NewAttribute(name, values, of)
}

// MustAttribute is NewAttribute that panics on invalid input; intended for
// programmatically constructed attributes.
func MustAttribute(name string, values []string, of []int) *Attribute {
	a, err := attribute.NewAttribute(name, values, of)
	if err != nil {
		panic(err)
	}
	return a
}

// NewTable builds a candidate database of n candidates with the given
// protected attributes.
func NewTable(n int, attrs ...*Attribute) (*Table, error) {
	return attribute.NewTable(n, attrs...)
}

// NewPrecedence computes the precedence matrix of a profile with the
// upper-triangle accumulation kernel (n(n-1)/2 branch-free increments per
// base ranking), sharded over a worker pool for large profiles.
func NewPrecedence(p Profile) (*Precedence, error) { return ranking.NewPrecedence(p) }

// NewPrecedenceWorkers is NewPrecedence with an explicit construction worker
// count (0 auto-sizes, 1 forces the serial kernel). The matrix is bitwise
// identical for every worker count.
func NewPrecedenceWorkers(p Profile, workers int) (*Precedence, error) {
	return ranking.NewPrecedenceWorkers(p, workers)
}

// NewMallows constructs a Mallows model centred at modal with spread theta.
func NewMallows(modal Ranking, theta float64) (*MallowsModel, error) {
	return mallows.New(modal, theta)
}

// KendallTau returns the Kendall tau distance between two rankings in
// O(n log n) (paper Def. 8).
func KendallTau(a, b Ranking) int { return ranking.KendallTau(a, b) }

// PDLoss returns the Pairwise Disagreement loss of consensus r against
// profile p, in [0, 1] (paper Def. 9).
func PDLoss(p Profile, r Ranking) float64 { return ranking.PDLoss(p, r) }

// FPR returns the Favored Pair Representation score of every group of
// attribute a in ranking r, indexed by attribute value (paper Def. 4). 0.5
// is statistical parity.
func FPR(r Ranking, a *Attribute) []float64 { return fairness.GroupFPRs(r, a) }

// ARP returns the Attribute Rank Parity of attribute a in ranking r: the
// maximum FPR gap between any two of its groups (paper Def. 5).
func ARP(r Ranking, a *Attribute) float64 { return fairness.ARP(r, a) }

// IRP returns the Intersectional Rank Parity of ranking r over t's
// attribute intersection (paper Def. 6).
func IRP(r Ranking, t *Table) float64 { return fairness.IRP(r, t) }

// Audit computes the full MANI-Rank fairness report of ranking r.
func Audit(r Ranking, t *Table) Report { return fairness.Audit(r, t) }

// FormatReport renders an audit with attribute and group names.
func FormatReport(rep Report, t *Table) string { return fairness.FormatReport(rep, t) }

// SatisfiesMANIRank reports whether r meets MANI-Rank fairness at threshold
// delta: every ARP and the IRP at or below delta (paper Def. 7).
func SatisfiesMANIRank(r Ranking, t *Table, delta float64) bool {
	return fairness.SatisfiesMANIRank(r, t, delta)
}

// Targets returns the full MANI-Rank target set for table t at a uniform
// threshold delta: every protected attribute plus the intersection.
func Targets(t *Table, delta float64) []Target { return core.Targets(t, delta) }

// TargetsWithThresholds returns a customized target set honouring
// per-attribute thresholds (paper Section II-B).
func TargetsWithThresholds(t *Table, th Thresholds) []Target {
	return core.TargetsWithThresholds(t, th)
}

// TargetsWithSubsets extends the full MANI-Rank target set with parity
// constraints on specific subsets of protected attributes (paper Section
// II-B), each subset given as a list of attribute names.
func TargetsWithSubsets(t *Table, delta float64, subsets ...[]string) ([]Target, error) {
	return core.TargetsWithSubsets(t, delta, subsets...)
}

// MakeMRFair repairs a consensus ranking with targeted pair swaps until
// every target holds (paper Algorithm 2). The input is not modified.
func MakeMRFair(r Ranking, targets []Target) (Ranking, error) {
	return core.MakeMRFair(r, targets)
}

// PriceOfFairness returns PDLoss(p, fair) - PDLoss(p, unfair), the
// representation cost of imposing fairness (paper Eq. 13).
func PriceOfFairness(p Profile, fair, unfair Ranking) float64 {
	return core.PriceOfFairness(p, fair, unfair)
}
