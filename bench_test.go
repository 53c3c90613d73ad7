// Benchmarks regenerating every table and figure of the MANI-Rank paper
// (one Benchmark per artifact, running the experiment harness in its quick
// configuration) plus ablation benches for the design choices DESIGN.md
// calls out. Run `go run ./cmd/experiments <id>` for full paper-scale rows;
// EXPERIMENTS.md records paper-vs-measured values.
package manirank_test

import (
	"context"
	"io"
	"math/rand"
	"sort"
	"testing"

	"manirank"
	"manirank/internal/core"
	"manirank/internal/experiments"
	"manirank/internal/kemeny"
	"manirank/internal/mallows"
	"manirank/internal/ranking"
	"manirank/internal/unfairgen"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Config{Seed: 1, Out: io.Discard, Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Datasets regenerates paper Table I (dataset fairness).
func BenchmarkTable1Datasets(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig2Admissions regenerates paper Figure 2 (admissions example).
func BenchmarkFig2Admissions(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3ConstraintVariants regenerates paper Figure 3 (attribute-only
// vs intersection-only vs MANI-Rank constraint sets).
func BenchmarkFig3ConstraintVariants(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4Methods regenerates paper Figure 4 (8-method comparison).
func BenchmarkFig4Methods(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5PoF regenerates paper Figure 5 (price of fairness).
func BenchmarkFig5PoF(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6RankerScale regenerates paper Figure 6 (runtime vs |R|).
func BenchmarkFig6RankerScale(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7CandidateScale regenerates paper Figure 7 (runtime vs n).
func BenchmarkFig7CandidateScale(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkTable2FairBordaRankers regenerates paper Table II (Fair-Borda
// ranker scalability).
func BenchmarkTable2FairBordaRankers(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3FairBordaCandidates regenerates paper Table III (Fair-Borda
// candidate scalability).
func BenchmarkTable3FairBordaCandidates(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkTable4ExamStudy regenerates paper Table IV (merit scholarships).
func BenchmarkTable4ExamStudy(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkTable5CSRankings regenerates paper Table V (CSRankings).
func BenchmarkTable5CSRankings(b *testing.B) { benchExperiment(b, "table5") }

// --- Ablation benches (DESIGN.md Section 5) ---

// ablationSetup builds a biased consensus problem for repair ablations.
func ablationSetup(b *testing.B, n int) (ranking.Ranking, []core.Target) {
	b.Helper()
	tab, err := unfairgen.PaperTable(n)
	if err != nil {
		b.Fatal(err)
	}
	return unfairgen.BlockRanking(tab), core.Targets(tab, 0.1)
}

// BenchmarkAblationSwapPolicyImpactful measures the paper's repair policy
// ("fewer but more impactful swaps"); compare with the FineGrained variant
// below — the impactful policy needs far fewer swaps for the same Delta.
func BenchmarkAblationSwapPolicyImpactful(b *testing.B) {
	r, targets := ablationSetup(b, 90)
	b.ResetTimer()
	swaps := 0
	for i := 0; i < b.N; i++ {
		_, s, err := core.MakeMRFairWithPolicy(r, targets, core.PolicyImpactful)
		if err != nil {
			b.Fatal(err)
		}
		swaps = s
	}
	b.ReportMetric(float64(swaps), "swaps")
}

// BenchmarkAblationSwapPolicyFineGrained always takes the smallest
// available corrective step.
func BenchmarkAblationSwapPolicyFineGrained(b *testing.B) {
	r, targets := ablationSetup(b, 90)
	b.ResetTimer()
	swaps := 0
	for i := 0; i < b.N; i++ {
		_, s, err := core.MakeMRFairWithPolicy(r, targets, core.PolicyFineGrained)
		if err != nil {
			b.Fatal(err)
		}
		swaps = s
	}
	b.ReportMetric(float64(swaps), "swaps")
}

// kemenyBenchInstance builds a mid-size Kemeny instance with a moderate
// consensus level, hard enough that pruning matters.
func kemenyBenchInstance(b *testing.B, n int) *ranking.Precedence {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	modal := ranking.Random(n, rng)
	p := mallows.MustNew(modal, 0.15).SampleProfile(9, rng)
	return ranking.MustPrecedence(p)
}

// BenchmarkAblationKemenyBBSeeded measures exact branch-and-bound seeded
// with a local-search incumbent; compare with the unseeded variant — the
// incumbent prunes most of the tree.
func BenchmarkAblationKemenyBBSeeded(b *testing.B) {
	w := kemenyBenchInstance(b, 12)
	b.ResetTimer()
	var nodes int64
	for i := 0; i < b.N; i++ {
		seed := kemeny.LocalSearch(w, w.Borda())
		res := kemeny.BranchAndBound(context.Background(), w, nil, seed, 0)
		nodes = res.Nodes
	}
	b.ReportMetric(float64(nodes), "nodes")
}

// BenchmarkAblationKemenyBBUnseeded runs the same search with no incumbent.
func BenchmarkAblationKemenyBBUnseeded(b *testing.B) {
	w := kemenyBenchInstance(b, 12)
	b.ResetTimer()
	var nodes int64
	for i := 0; i < b.N; i++ {
		res := kemeny.BranchAndBound(context.Background(), w, nil, nil, 0)
		nodes = res.Nodes
	}
	b.ReportMetric(float64(nodes), "nodes")
}

// BenchmarkAblationILSBordaInit measures iterated local search seeded from
// the Borda order; compare with the random-start variant — the Borda seed
// starts near the optimum basin.
func BenchmarkAblationILSBordaInit(b *testing.B) {
	w := kemenyBenchInstance(b, 90)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kemeny.LocalSearch(w, w.Borda())
	}
}

// BenchmarkAblationILSRandomInit starts local search from a random ranking.
func BenchmarkAblationILSRandomInit(b *testing.B) {
	w := kemenyBenchInstance(b, 90)
	rng := rand.New(rand.NewSource(10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kemeny.LocalSearch(w, ranking.Random(90, rng))
	}
}

// --- Core operation micro-benches ---

// BenchmarkPrecedenceMatrix100x150 builds the Figure 3/4 workload's
// precedence matrix (90 candidates would match the paper; 100 rounds up).
func BenchmarkPrecedenceMatrix100x150(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	p := make(ranking.Profile, 150)
	for i := range p {
		p[i] = ranking.Random(100, rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranking.MustPrecedence(p)
	}
}

// BenchmarkMakeMRFair90 measures one full repair of a maximally unfair
// 90-candidate ranking to Delta = 0.1.
func BenchmarkMakeMRFair90(b *testing.B) {
	r, targets := ablationSetup(b, 90)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MakeMRFair(r, targets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMallowsSample90 measures one exact RIM Mallows draw at the
// paper's figure scale through the zero-allocation sampler path (profile
// generation draws 20k+ of these in fig6). Steady state must report
// 0 allocs/op.
func BenchmarkMallowsSample90(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	s := mallows.MustNew(ranking.Random(90, rng), 0.6).Sampler()
	dst := make(ranking.Ranking, 90)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleInto(dst, rng)
	}
}

// BenchmarkPlackettLuce100k measures one approximate draw at Table III
// scale through the zero-allocation sampler path. Steady state must report
// 0 allocs/op.
func BenchmarkPlackettLuce100k(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	s := mallows.MustNewPlackettLuce(ranking.New(100_000), 0.6).Sampler()
	dst := make(ranking.Ranking, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleInto(dst, rng)
	}
}

// --- Engine API v2 benches (DESIGN.md Section 8) ---

// engineBenchInstance builds the multi-method workload the Engine is
// designed for: a serving-style profile — many rankers, so the O(n²·m)
// precedence construction is a real fraction of the work — plus the
// MANI-Rank targets the fair methods repair toward. Restarts are disabled
// (single-descent heuristics) on both sides so the comparison isolates the
// dispatch architecture, not the search budget.
func engineBenchInstance(b *testing.B) (manirank.Profile, []manirank.Target) {
	b.Helper()
	tab, err := unfairgen.PaperTable(90)
	if err != nil {
		b.Fatal(err)
	}
	modal := unfairgen.BlockRanking(tab)
	rng := rand.New(rand.NewSource(15))
	p := mallows.MustNew(modal, 0.5).SampleProfile(600, rng)
	return p, core.Targets(tab, 0.2)
}

// BenchmarkEngineSolveAll measures the shared-matrix path: one Engine per
// iteration (a single O(n²·m) precedence construction) serving all eight
// canonical methods through the registry. Compare with
// BenchmarkPerCallSolveAll — the gap is the construction work the Engine
// amortises across a multi-method workload (BENCH_5.json records the
// pair). No table is attached, so neither side audits.
func BenchmarkEngineSolveAll(b *testing.B) {
	p, targets := engineBenchInstance(b)
	ctx := context.Background()
	opts := []manirank.SolveOption{
		manirank.WithSolverWorkers(1),
		manirank.WithPerturbations(-1),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := manirank.NewEngine(p, manirank.WithPrecedenceWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range manirank.Methods() {
			if _, err := eng.Solve(ctx, m, targets, opts...); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPerCallSolveAll runs the same eight-method workload with one
// Engine per method call, so each solve pays its own precedence matrix
// construction — the per-call pattern the shared Engine replaces.
func BenchmarkPerCallSolveAll(b *testing.B) {
	p, targets := engineBenchInstance(b)
	ctx := context.Background()
	opts := []manirank.SolveOption{
		manirank.WithSolverWorkers(1),
		manirank.WithPerturbations(-1),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range manirank.Methods() {
			eng, err := manirank.NewEngine(p, manirank.WithPrecedenceWorkers(1))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Solve(ctx, m, targets, opts...); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// restartBenchInstance builds the restart-dominated Kemeny workload: a noisy
// profile large enough that the perturbation restarts, not the Borda seed
// descent, carry most of the work.
func restartBenchInstance(b *testing.B) (*ranking.Precedence, kemeny.Options) {
	b.Helper()
	rng := rand.New(rand.NewSource(14))
	modal := ranking.Random(220, rng)
	p := mallows.MustNew(modal, 0.05).SampleProfile(11, rng)
	return ranking.MustPrecedence(p), kemeny.Options{Seed: 14, Perturbations: 24, Strength: 8}
}

// benchHeuristicRestarts runs the sharded-restart Kemeny heuristic at a
// fixed pool width. Output is bitwise identical across widths, so W1 vs W4
// is a pure wall-clock comparison (the ~2x+ speedup needs 4+ hardware
// threads; single-CPU runners serialise the shards).
func benchHeuristicRestarts(b *testing.B, workers int) {
	w, opts := restartBenchInstance(b)
	opts.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kemeny.Heuristic(w, opts)
	}
}

// BenchmarkHeuristicRestartsW1 runs the restarts sequentially.
func BenchmarkHeuristicRestartsW1(b *testing.B) { benchHeuristicRestarts(b, 1) }

// BenchmarkHeuristicRestartsW4 shards the restarts over 4 workers.
func BenchmarkHeuristicRestartsW4(b *testing.B) { benchHeuristicRestarts(b, 4) }

// --- Incremental fairness engine benches (PR 6, DESIGN.md Section 9) ---

// skipIfShort gates the fairness-scale macro-benchmarks (seconds to minutes
// per iteration — the full-audit baseline alone runs ~35 minutes) out of the
// CI bench-smoke stage, which passes -short; scripts/bench.sh runs them for
// real when recording BENCH_<n>.json.
func skipIfShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("macro benchmark; run via scripts/bench.sh")
	}
}

// fairScaleInstance builds the constrained-descent workload at candidate
// scale n: a concentrated Plackett-Luce profile (theta 3.0 — strong pairwise
// margins, so the descent converges in a bounded number of passes instead of
// chasing noise) over the paper's attribute shape, MANI-Rank targets at
// Delta 0.1, and a feasible start (Borda seed repaired by Make-MR-Fair) —
// exactly the state Fair-Kemeny hands to its seed descent. The matrix, constraints, and start are all built in setup so the
// timed region is the descent alone.
func fairScaleInstance(b *testing.B, n, m int) (*ranking.Precedence, []kemeny.Constraint, ranking.Ranking) {
	b.Helper()
	tab, err := unfairgen.PaperTable(n)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	p := mallows.MustNewPlackettLuce(unfairgen.BlockRanking(tab), 3.0).SampleProfile(m, rng)
	w := ranking.MustPrecedence(p)
	targets := core.Targets(tab, 0.1)
	start, err := core.MakeMRFair(w.Borda(), targets)
	if err != nil {
		b.Fatal(err)
	}
	cons := make([]kemeny.Constraint, len(targets))
	for i, tg := range targets {
		cons[i] = kemeny.Constraint{Attr: tg.Attr, Delta: tg.Delta}
	}
	return w, cons, start
}

// BenchmarkConstrainedDescent5k measures the feasibility-preserving descent
// at n = 5000 through the incremental parity auditor (O(groups log n) per
// trial move). Compare with BenchmarkConstrainedDescentFullAudit5k — the
// identical descent paying the pre-PR-6 full fairness recompute per trial —
// for the speedup BENCH_6.json tracks.
func BenchmarkConstrainedDescent5k(b *testing.B) {
	skipIfShort(b)
	w, cons, start := fairScaleInstance(b, 4995, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kemeny.ConstrainedSearch(w, cons, start, kemeny.Options{Perturbations: -1})
	}
}

// BenchmarkConstrainedDescent1k is BenchmarkConstrainedDescent5k at
// n = 990, small enough (well under a second) to run without -short gating,
// so the bench-smoke stage executes the fused scan-and-audit descent too.
func BenchmarkConstrainedDescent1k(b *testing.B) {
	w, cons, start := fairScaleInstance(b, 990, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kemeny.ConstrainedSearch(w, cons, start, kemeny.Options{Perturbations: -1})
	}
}

// fullAuditDescent is the pre-PR-6 constrained descent expressed through
// exported APIs only: every trial move mutates the ranking, pays a full
// kemeny.Feasible audit (O(n) per constraint), and undoes on infeasibility.
// It exists as the benchmark baseline for the incremental auditor. It tries
// candidates in stable ascending-delta order (sort.SliceStable) and accepts
// the first feasible one — the same move the live engine's single sweep
// picks as the best feasible (delta, scan order) target — so the pair
// measures the audit and candidate-selection cost together.
func fullAuditDescent(w *ranking.Precedence, cons []kemeny.Constraint, start ranking.Ranking) ranking.Ranking {
	r := start.Clone()
	n := len(r)
	type clsMove struct{ pos, delta int }
	var moves []clsMove
	for improved := true; improved; {
		improved = false
		for i := 0; i < n; i++ {
			c := r[i]
			cands := moves[:0]
			delta := 0
			for j := i - 1; j >= 0; j-- {
				y := r[j]
				delta += w.At(c, y) - w.At(y, c)
				if delta < 0 {
					cands = append(cands, clsMove{j, delta})
				}
			}
			delta = 0
			for j := i + 1; j < n; j++ {
				y := r[j]
				delta -= w.At(c, y) - w.At(y, c)
				if delta < 0 {
					cands = append(cands, clsMove{j, delta})
				}
			}
			moves = cands[:0]
			sort.SliceStable(cands, func(a, b int) bool { return cands[a].delta < cands[b].delta })
			for _, mv := range cands {
				r.MoveTo(i, mv.pos)
				if kemeny.Feasible(r, cons) {
					improved = true
					break
				}
				r.MoveTo(mv.pos, i) // undo
			}
		}
	}
	return r
}

// BenchmarkConstrainedDescentFullAudit5k is the full-recompute baseline for
// BenchmarkConstrainedDescent5k (and sanity-checks that both descents land
// on the same ranking).
func BenchmarkConstrainedDescentFullAudit5k(b *testing.B) {
	skipIfShort(b)
	w, cons, start := fairScaleInstance(b, 4995, 8)
	want := kemeny.ConstrainedSearch(w, cons, start, kemeny.Options{Perturbations: -1})
	b.ResetTimer()
	var got ranking.Ranking
	for i := 0; i < b.N; i++ {
		got = fullAuditDescent(w, cons, start)
	}
	b.StopTimer()
	if !got.Equal(want) {
		b.Fatal("full-audit baseline diverged from incremental descent")
	}
}

// BenchmarkMakeMRFair5k measures one full repair of a maximally unfair
// 5000-candidate block ranking to Delta = 0.1 (paper Table III scale).
func BenchmarkMakeMRFair5k(b *testing.B) {
	skipIfShort(b)
	r, targets := ablationSetup(b, 4995)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MakeMRFair(r, targets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMakeMRFair10k is BenchmarkMakeMRFair5k at n = 10000.
func BenchmarkMakeMRFair10k(b *testing.B) {
	skipIfShort(b)
	r, targets := ablationSetup(b, 9990)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MakeMRFair(r, targets); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFairKemeny measures the full Fair-Kemeny solve (unconstrained
// heuristic, Make-MR-Fair repair, constrained seed descent; restarts
// disabled so the cost is one descent, matching the scalability figures'
// single-shot runs) on a prebuilt matrix of m rankings at candidate scale n.
func benchFairKemeny(b *testing.B, n, m int) {
	b.Helper()
	tab, err := unfairgen.PaperTable(n)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	p := mallows.MustNewPlackettLuce(unfairgen.BlockRanking(tab), 3.0).SampleProfile(m, rng)
	w := ranking.MustPrecedence(p)
	targets := core.Targets(tab, 0.1)
	opts := kemeny.Options{Workers: 1, Perturbations: -1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.FairKemenyW(context.Background(), w, targets, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFairKemeny1k runs Fair-Kemeny at n = 990 over 50 rankings, the
// shape of perfbench's solve-fair workload. It is cheap enough to run
// without -short gating, and it is the `go test -cpuprofile` entry point for
// that path.
func BenchmarkFairKemeny1k(b *testing.B) { benchFairKemeny(b, 990, 50) }

// BenchmarkFairKemeny5k runs Fair-Kemeny at n = 5000.
func BenchmarkFairKemeny5k(b *testing.B) {
	skipIfShort(b)
	benchFairKemeny(b, 4995, 8)
}

// BenchmarkFairKemeny10k runs Fair-Kemeny at n = 10000.
func BenchmarkFairKemeny10k(b *testing.B) {
	skipIfShort(b)
	benchFairKemeny(b, 9990, 8)
}
