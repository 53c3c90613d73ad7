package manirank_test

import (
	"context"
	"sync/atomic"
	"testing"

	"manirank"
)

// pollBudgetCtx is a context that reads as cancelled from its budget-th
// Err() poll on: the searches poll between passes and restarts, so a
// budget cancels a solve at a reproducible point mid-search.
type pollBudgetCtx struct {
	context.Context
	left atomic.Int64
}

func newPollBudgetCtx(budget int64) *pollBudgetCtx {
	c := &pollBudgetCtx{Context: context.Background()}
	c.left.Store(budget)
	return c
}

func (c *pollBudgetCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestResultPDLossExact: Result.PDLoss is bit for bit the PD loss of
// Result.Ranking against the engine's matrix, for every method — whether
// the solve tracked the cost (kemeny, fair-kemeny) or Solve counted it.
// It covers restarts on and off, solver workers 1 and 2, the exact engines
// (n at or below the exact threshold) and the heuristic ones, a warm start,
// and fair-kemeny and kemeny solves cancelled mid-search, whose partial
// rankings carry the cost of wherever the search stopped.
func TestResultPDLossExact(t *testing.T) {
	check := func(what string, eng *manirank.Engine, res *manirank.Result) {
		t.Helper()
		if want := eng.Precedence().PDLoss(res.Ranking); res.PDLoss != want {
			t.Fatalf("%s: Result.PDLoss = %v, Precedence.PDLoss = %v", what, res.PDLoss, want)
		}
	}
	// The noisy instances (small theta) have many local optima, so some
	// restarts beat their seed and hand on their own cost.
	for _, inst := range []struct {
		n, m  int
		theta float64
		seed  int64
	}{{10, 7, 0.4, 1}, {40, 15, 0.4, 2}, {60, 11, 0.05, 3}, {80, 9, 0.02, 4}} {
		tab := demoTable(t, inst.n)
		p := demoProfile(t, tab, inst.m, inst.theta, inst.seed)
		targets := manirank.Targets(tab, 0.2)
		eng, err := manirank.NewEngine(p, manirank.WithTable(tab))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range manirank.AllMethods() {
			for _, perturbations := range []int{-1, 8} {
				for _, workers := range []int{1, 2} {
					opts := []manirank.SolveOption{
						manirank.WithSeed(int64(workers)), manirank.WithSolverWorkers(workers),
						manirank.WithPerturbations(perturbations),
					}
					res, err := eng.Solve(context.Background(), m, targets, opts...)
					if err != nil {
						t.Fatalf("n=%d %s: %v", inst.n, m, err)
					}
					check("cold "+m.String(), eng, res)
					warm, err := eng.Solve(context.Background(), m, targets, append(opts, manirank.WithWarmStart(res.Ranking))...)
					if err != nil {
						t.Fatalf("n=%d %s warm: %v", inst.n, m, err)
					}
					check("warm "+m.String(), eng, warm)
				}
			}
		}
		for _, m := range []manirank.Method{manirank.MethodFairKemeny, manirank.MethodKemeny} {
			partials := 0
			for budget := int64(0); budget < 40; budget++ {
				res, err := eng.Solve(newPollBudgetCtx(budget), m, targets,
					manirank.WithSolverWorkers(1), manirank.WithPerturbations(8))
				if err != nil {
					t.Fatalf("n=%d %s budget %d: %v", inst.n, m, budget, err)
				}
				check("cancelled "+m.String(), eng, res)
				if res.Partial {
					partials++
				}
			}
			if partials == 0 {
				t.Fatalf("n=%d %s: no solve was cut short", inst.n, m)
			}
		}
	}
}
