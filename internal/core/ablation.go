package core

import "manirank/internal/ranking"

// RepairPolicy selects the swap-selection strategy used by Make-MR-Fair.
// The default PolicyImpactful is the paper's design; PolicyFineGrained is an
// ablation that always takes the finest available step, and exists to
// quantify how much the paper's "fewer but more impactful swaps" choice
// saves (see DESIGN.md, ablations, and BenchmarkAblationSwapPolicy).
type RepairPolicy int

const (
	// PolicyImpactful prefers the paper's long swap (lowest member of the
	// highest-FPR group against the highest member of the lowest-FPR group
	// below it) and falls back to fine-grained transfers only when the long
	// swap would overshoot parity.
	PolicyImpactful RepairPolicy = iota
	// PolicyFineGrained always performs the best minimum-distance transfer,
	// taking many small steps.
	PolicyFineGrained
)

// RepairToLevels walks r toward parity in the smallest possible steps —
// adjacent pair swaps, each transferring exactly one mixed-pair win per
// attribute — until every target's spread is at or below its delta. Because
// each step moves every parity score by at most one win quantum, the
// resulting scores sit as close to their targets as the granularity allows.
// It exists for dataset generation (building rankings with *requested
// levels of unfairness*, paper Table I); consensus repair should use
// MakeMRFair, which takes far fewer, larger swaps. When no adjacent swap
// makes progress (tied plateaus), one minimum-distance transfer from the
// global search unsticks the walk.
func RepairToLevels(r ranking.Ranking, targets []Target) (ranking.Ranking, error) {
	out, _, err := repair(r, targets, (*parityEngine).findBestAdjacentSwap, nil)
	return out, err
}

// MakeMRFairWithPolicy is MakeMRFair with an explicit swap-selection policy
// and a swap counter, supporting the swap-policy ablation study. It returns
// the repaired ranking and the number of pair swaps performed.
func MakeMRFairWithPolicy(r ranking.Ranking, targets []Target, policy RepairPolicy) (ranking.Ranking, int, error) {
	var pick swapPicker
	if policy == PolicyImpactful {
		pick = (*parityEngine).paperSwap
	}
	return repair(r, targets, pick, nil)
}
