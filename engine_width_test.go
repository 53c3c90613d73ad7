package manirank_test

import (
	"context"
	"math"
	"testing"

	"manirank"
	"manirank/internal/ranking"
)

// TestCellWidthParity solves the same instance over its unit-weight matrix
// (m ≤ 65535, so uint16 cells) and over the matrix weighting every ranking
// k, with k·m > 65535 (int32 cells). Every comparison a solver makes scales
// by k, so every served method must return the same ranking, at exactly k
// times the Kemeny cost. It covers the exact engines (n at or below the
// exact threshold) and the heuristic ones, restarts included.
func TestCellWidthParity(t *testing.T) {
	ctx := context.Background()
	for _, inst := range []struct {
		n, m  int
		theta float64
		seed  int64
	}{{10, 7, 0.4, 1}, {60, 11, 0.05, 3}} {
		tab := demoTable(t, inst.n)
		p := demoProfile(t, tab, inst.m, inst.theta, inst.seed)
		targets := manirank.Targets(tab, 0.2)
		k := math.MaxUint16/inst.m + 1
		weights := make([]int, inst.m)
		for i := range weights {
			weights[i] = k
		}
		narrow, err := ranking.NewPrecedence(p)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := ranking.NewWeightedPrecedence(p, weights)
		if err != nil {
			t.Fatal(err)
		}
		cells := int64(inst.n * inst.n)
		if narrow.CellBytes() != 2*cells || wide.CellBytes() != 4*cells {
			t.Fatalf("n=%d: CellBytes %d and %d, want uint16 then int32 cells",
				inst.n, narrow.CellBytes(), wide.CellBytes())
		}
		en, err := manirank.NewEngineW(narrow, manirank.WithTable(tab))
		if err != nil {
			t.Fatal(err)
		}
		ew, err := manirank.NewEngineW(wide, manirank.WithTable(tab))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range manirank.Methods() {
			rn, err := en.Solve(ctx, m, targets, pinnedSolveOptions()...)
			if err != nil {
				t.Fatalf("n=%d %s (uint16): %v", inst.n, m, err)
			}
			rw, err := ew.Solve(ctx, m, targets, pinnedSolveOptions()...)
			if err != nil {
				t.Fatalf("n=%d %s (int32): %v", inst.n, m, err)
			}
			if !rn.Ranking.Equal(rw.Ranking) {
				t.Fatalf("n=%d %s: uint16 ranking %v, int32 ranking %v", inst.n, m, rn.Ranking, rw.Ranking)
			}
			if cn, cw := narrow.KemenyCost(rn.Ranking), wide.KemenyCost(rw.Ranking); cw != k*cn {
				t.Fatalf("n=%d %s: int32 cost %d, want %d·%d = %d", inst.n, m, cw, k, cn, k*cn)
			}
		}
	}
}
