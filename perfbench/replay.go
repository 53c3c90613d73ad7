package main

import (
	"context"
	"fmt"
	"time"

	"manirank"
	"manirank/internal/attribute"
	"manirank/internal/core"
	"manirank/internal/kemeny"
	"manirank/internal/ranking"
)

// rowUpdate replaces ranker idx's ranking with row.
type rowUpdate struct {
	idx int
	row ranking.Ranking
}

// replay is the traced run's per-layer pass over a workload's own profiles:
// it calls each layer's public function directly, inside a span.
type replay struct {
	profiles []ranking.Profile
	tab      *attribute.Table
	delta    float64
	methods  []manirank.Method
	workers  int
	// perturbations is the workload's Kemeny restart count (0: the
	// default; negative: none).
	perturbations int
	// updates[i] is the mutation stream applied to profile i after its cold
	// solves; each update is followed by a warm-started fair-kemeny solve.
	updates [][]rowUpdate
}

// stopwatch records a span per call and keeps its own per-name totals, so
// the replay's means never mix with spans of the same name recorded
// elsewhere in the run.
type stopwatch struct {
	tr  *tracer
	sum map[string]time.Duration
	n   map[string]int
}

func (s *stopwatch) timed(name string, fn func()) {
	_, end := s.tr.begin(name, 0)
	t0 := time.Now()
	fn()
	s.sum[name] += time.Since(t0)
	s.n[name]++
	end()
}

func (s *stopwatch) meanMS(name string) float64 {
	if s.n[name] == 0 {
		return 0
	}
	return msOf(s.sum[name]) / float64(s.n[name])
}

// run records the spans and fills the ranking.*, manirank.*, kemeny.* and
// core.* per-layer metrics. Fair-kemeny is replayed phase by phase — the
// unconstrained incumbent, the Make-MR-Fair repair, the constrained descent
// — with the Engine's own options, and must reproduce the Engine's answer.
func (rp replay) run(trc *tracer, o *outcome) error {
	tr := &stopwatch{tr: trc, sum: map[string]time.Duration{}, n: map[string]int{}}
	ctx := context.Background()
	targets := manirank.Targets(rp.tab, rp.delta)
	cons := make([]kemeny.Constraint, len(targets))
	for i, t := range targets {
		cons[i] = kemeny.Constraint{Attr: t.Attr, Delta: t.Delta}
	}
	opts := []manirank.SolveOption{
		manirank.WithSolverWorkers(rp.workers), manirank.WithPerturbations(rp.perturbations),
	}
	var fairSolve time.Duration
	fairSolves := 0
	for i, p := range rp.profiles {
		var w *ranking.Precedence
		var err error
		tr.timed("ranking.NewPrecedence", func() { w, err = ranking.NewPrecedence(p) })
		if err != nil {
			return fmt.Errorf("replay: building W: %w", err)
		}
		eng, err := manirank.NewEngineWithMatrix(p, w, manirank.WithTable(rp.tab))
		if err != nil {
			return fmt.Errorf("replay: engine: %w", err)
		}
		var cold *manirank.Result
		for _, m := range rp.methods {
			var res *manirank.Result
			t0 := time.Now()
			tr.timed("manirank.Engine.Solve", func() { res, err = eng.Solve(ctx, m, targets, opts...) })
			if err != nil {
				return fmt.Errorf("replay: %s: %w", m, err)
			}
			if m == manirank.MethodFairKemeny {
				fairSolve += time.Since(t0)
				fairSolves++
				cold = res
			}
		}
		if cold == nil {
			return fmt.Errorf("replay: fair-kemeny is not among the methods")
		}

		kopts := kemeny.Options{Workers: rp.workers, Perturbations: rp.perturbations}
		var unfair, incumbent, fair ranking.Ranking
		tr.timed("kemeny.Heuristic", func() { unfair = kemeny.Heuristic(w, kopts) })
		tr.timed("core.MakeMRFair", func() { incumbent, err = core.MakeMRFair(unfair, targets) })
		if err != nil {
			return fmt.Errorf("replay: repair: %w", err)
		}
		tr.timed("kemeny.ConstrainedSearch", func() { fair = kemeny.ConstrainedSearch(w, cons, incumbent, kopts) })
		if !fair.Equal(cold.Ranking) {
			o.problem("replayed fair-kemeny phases diverge from Engine.Solve on profile %d", i)
		}

		prev := cold.Ranking
		for _, u := range rp.updates[i] {
			tr.timed("manirank.Engine.UpdateRanking", func() { err = eng.UpdateRanking(u.idx, u.row) })
			if err != nil {
				return fmt.Errorf("replay: update: %w", err)
			}
			var res *manirank.Result
			tr.timed("manirank.Engine.Solve.warm", func() {
				warm := append(opts[:len(opts):len(opts)], manirank.WithWarmStart(prev))
				res, err = eng.Solve(ctx, manirank.MethodFairKemeny, targets, warm...)
			})
			if err != nil {
				return fmt.Errorf("replay: warm solve: %w", err)
			}
			prev = res.Ranking
		}
	}
	o.layer["ranking.build_ms"] = tr.meanMS("ranking.NewPrecedence")
	o.layer["ranking.patch_us"] = 1000 * tr.meanMS("manirank.Engine.UpdateRanking")
	o.layer["manirank.solve_ms"] = tr.meanMS("manirank.Engine.Solve")
	o.layer["manirank.warm_solve_ms"] = tr.meanMS("manirank.Engine.Solve.warm")
	inc, rep, desc := tr.meanMS("kemeny.Heuristic"), tr.meanMS("core.MakeMRFair"), tr.meanMS("kemeny.ConstrainedSearch")
	o.layer["kemeny.incumbent_ms"] = inc
	o.layer["core.repair_ms"] = rep
	o.layer["kemeny.descent_ms"] = desc
	o.layer["manirank.unattributed_ms"] = msOf(fairSolve)/float64(fairSolves) - inc - rep - desc
	return nil
}

// randomUpdates draws k single-ranking replacements for a profile of m
// rankers over n candidates.
func randomUpdates(seed int64, stream string, i, k, m, n int) []rowUpdate {
	rng := rngFor(seed, stream, i)
	out := make([]rowUpdate, k)
	for j := range out {
		out[j] = rowUpdate{idx: rng.Intn(m), row: ranking.Random(n, rng)}
	}
	return out
}
