package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"manirank"
	"manirank/internal/attribute"
	"manirank/internal/core"
	"manirank/internal/mallows"
	"manirank/internal/ranking"
	"manirank/internal/unfairgen"
)

// fig6Modal builds the scalability study's modal ranking: a binary
// Gender(2) x Race(2) database with modal ARP(Race)=0.15, ARP(Gender)=0.70
// (paper Section IV-D, Fig. 6 / Table II dataset).
func fig6Modal(n int, rng *rand.Rand) (*attribute.Table, ranking.Ranking, error) {
	tab, err := unfairgen.BinaryTable(n)
	if err != nil {
		return nil, nil, err
	}
	modal, err := unfairgen.CalibratedBinaryModal(tab, 0.70, 0.15, rng)
	if err != nil {
		return nil, nil, err
	}
	return tab, modal, nil
}

// fig7Modal builds the candidate-scalability modal: ARP(Race)=0.31,
// ARP(Gender)=0.44 (paper Fig. 7 / Table III dataset).
func fig7Modal(n int, rng *rand.Rand) (*attribute.Table, ranking.Ranking, error) {
	tab, err := unfairgen.BinaryTable(n)
	if err != nil {
		return nil, nil, err
	}
	modal, err := unfairgen.CalibratedBinaryModal(tab, 0.44, 0.31, rng)
	if err != nil {
		return nil, nil, err
	}
	return tab, modal, nil
}

// Fig6 regenerates paper Figure 6: runtime of all eight methods as the
// number of base rankings grows (n = 100 candidates, theta = 0.6,
// Delta = 0.1). Base rankings are drawn with the O(n log n) Plackett-Luce
// sampler so generation does not dominate the measured aggregation times.
//
// Profiles are sampled concurrently per size, then |R| x method cells run on
// the worker pool. PD losses are deterministic across worker counts; the
// Runtime column is wall-clock and contends under parallelism, so use
// Workers: 1 for publication-grade timings.
func Fig6(cfg Config) error {
	sizes := []int{1000, 5000, 10000, 20000}
	if cfg.Quick {
		sizes = []int{200, 500}
	}
	tab, modal, err := fig6Modal(100, cellRNG(cfg.Seed, "fig6modal"))
	if err != nil {
		return err
	}
	pl := mallows.MustNewPlackettLuce(modal, 0.6)
	ctxs := make([]*runCtx, len(sizes))
	err = runCells(cfg.workers(), len(sizes), func(si int) error {
		p := pl.SampleProfile(sizes[si], cellRNG(cfg.Seed, "fig6", si))
		var err error
		ctxs[si], err = newRunCtx(p, tab, 0.1)
		return err
	})
	if err != nil {
		return err
	}
	methods := allMethods()
	rows := make([]string, len(sizes)*len(methods))
	err = runCells(cfg.workers(), len(rows), func(i int) error {
		si, mi := i/len(methods), i%len(methods)
		ctx, meth := ctxs[si], methods[mi]
		res, elapsed, err := timedSolve(cfg, ctx, meth.M)
		if err != nil {
			return fmt.Errorf("experiments: fig6 |R|=%d %s: %w", sizes[si], meth.Name, err)
		}
		rows[i] = fmt.Sprintf("%d\t(%s) %s\t%v\t%.3f\n", sizes[si], meth.ID, meth.Name, elapsed.Round(time.Microsecond), res.PDLoss)
		return nil
	})
	if err != nil {
		return err
	}
	tw := newTabWriter(cfg.out())
	fmt.Fprintln(tw, "|R|\tMethod\tRuntime\tPD_Loss")
	for _, row := range rows {
		fmt.Fprint(tw, row)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return fig6FairScale(cfg)
}

// fig6FairScale appends the fair-method candidate-scaling block to Figure 6:
// the two incremental-audit hot paths (Make-MR-Fair repair and the full
// Fair-Kemeny solve) timed as the candidate count grows to 10^4 with
// |R| = 100, theta = 0.6, Delta = 0.1 — the push past the paper's n = 500
// ceiling that the O(groups) parity auditor buys (DESIGN.md Section 9).
// The Borda seed handed to Make-MR-Fair is computed off-clock; the repair
// itself is the measured operation, as in the serving path.
func fig6FairScale(cfg Config) error {
	sizes := []int{1000, 5000, 10000}
	if cfg.Quick {
		sizes = []int{200, 500}
	}
	ctxs := make([]*runCtx, len(sizes))
	err := runCells(cfg.workers(), len(sizes), func(si int) error {
		tab, modal, err := fig6Modal(sizes[si], cellRNG(cfg.Seed, "fig6fairmodal", si))
		if err != nil {
			return err
		}
		p := mallows.MustNewPlackettLuce(modal, 0.6).SampleProfile(100, cellRNG(cfg.Seed, "fig6fair", si))
		ctxs[si], err = newRunCtx(p, tab, 0.1)
		return err
	})
	if err != nil {
		return err
	}
	const perSize = 2 // Make-MR-Fair repair, Fair-Kemeny solve
	rows := make([]string, len(sizes)*perSize)
	err = runCells(cfg.workers(), len(rows), func(i int) error {
		si, mi := i/perSize, i%perSize
		ctx := ctxs[si]
		if mi == 0 {
			seed := ctx.w.Borda()
			start := time.Now()
			r, err := core.MakeMRFair(seed, ctx.targets)
			elapsed := time.Since(start)
			if err != nil {
				return fmt.Errorf("experiments: fig6 fair-scale n=%d Make-MR-Fair: %w", sizes[si], err)
			}
			rows[i] = fmt.Sprintf("%d\t(MR) Make-MR-Fair\t%v\t%.3f\n", sizes[si], elapsed.Round(time.Microsecond), ctx.w.PDLoss(r))
			return nil
		}
		res, elapsed, err := timedSolve(cfg, ctx, manirank.MethodFairKemeny)
		if err != nil {
			return fmt.Errorf("experiments: fig6 fair-scale n=%d Fair-Kemeny: %w", sizes[si], err)
		}
		rows[i] = fmt.Sprintf("%d\t(A1) Fair-Kemeny\t%v\t%.3f\n", sizes[si], elapsed.Round(time.Microsecond), res.PDLoss)
		return nil
	})
	if err != nil {
		return err
	}
	tw := newTabWriter(cfg.out())
	fmt.Fprintln(tw, "Candidates\tMethod\tRuntime\tPD_Loss")
	for _, row := range rows {
		fmt.Fprint(tw, row)
	}
	return tw.Flush()
}

// Table2 regenerates paper Table II: Fair-Borda execution time for very
// large numbers of base rankings (up to 10^7 at paper scale). Following the
// measurement's intent — aggregation cost, not data generation cost — the
// profile cycles a pre-sampled pool of rankings up to the requested size.
// Sizes run concurrently on the worker pool against the shared read-only
// pool; use Workers: 1 for publication-grade timings.
func Table2(cfg Config) error {
	sizes := []int{1_000, 10_000, 100_000, 1_000_000, 10_000_000}
	if cfg.Quick {
		sizes = []int{1_000, 10_000, 100_000}
	}
	tab, modal, err := fig6Modal(100, cellRNG(cfg.Seed, "fig6modal"))
	if err != nil {
		return err
	}
	pl := mallows.MustNewPlackettLuce(modal, 0.6)
	const poolSize = 10_000
	pool := pl.SampleProfile(poolSize, cellRNG(cfg.Seed, "table2pool"))
	targets := core.Targets(tab, 0.1)
	rows := make([]string, len(sizes))
	err = runCells(cfg.workers(), len(sizes), func(si int) error {
		m := sizes[si]
		p := make(ranking.Profile, m)
		for i := range p {
			p[i] = pool[i%poolSize]
		}
		start := time.Now()
		if _, err := core.FairBorda(p, targets); err != nil {
			return fmt.Errorf("experiments: table2 |R|=%d: %w", m, err)
		}
		rows[si] = fmt.Sprintf("%d\t%.2f\n", m, time.Since(start).Seconds())
		return nil
	})
	if err != nil {
		return err
	}
	tw := newTabWriter(cfg.out())
	fmt.Fprintln(tw, "|R| Number of Rankings\tExecution time (s)")
	for _, row := range rows {
		fmt.Fprint(tw, row)
	}
	return tw.Flush()
}

// Fig7 regenerates paper Figure 7: runtime of all eight methods as the
// candidate count grows (|R| = 100, theta = 0.6), under a tight Delta = 0.1
// and a looser Delta = 0.33. Contexts are built concurrently per
// (delta, n) cell, then delta x n x method cells run on the worker pool;
// use Workers: 1 for publication-grade timings.
func Fig7(cfg Config) error {
	sizes := []int{100, 200, 300, 400, 500}
	if cfg.Quick {
		sizes = []int{60, 100}
	}
	deltas := []float64{0.1, 0.33}
	// One dataset (and precedence matrix) per candidate count, built
	// concurrently; the tight and loose Delta are compared on the identical
	// dataset, as in the paper — only the targets differ per delta.
	base := make([]*runCtx, len(sizes))
	err := runCells(cfg.workers(), len(sizes), func(ni int) error {
		tab, modal, err := fig7Modal(sizes[ni], cellRNG(cfg.Seed, "fig7modal", ni))
		if err != nil {
			return err
		}
		pl := mallows.MustNewPlackettLuce(modal, 0.6)
		p := pl.SampleProfile(100, cellRNG(cfg.Seed, "fig7", ni))
		base[ni], err = newRunCtx(p, tab, deltas[0])
		return err
	})
	if err != nil {
		return err
	}
	ctxs := make([]*runCtx, len(deltas)*len(sizes))
	for di := range deltas {
		for ni, bc := range base {
			if di == 0 {
				ctxs[ni] = bc
				continue
			}
			// Same profile, Engine, and matrix as the tight-delta context —
			// only the targets differ per delta, as in the paper.
			ctxs[di*len(sizes)+ni] = &runCtx{p: bc.p, eng: bc.eng, w: bc.w, tab: bc.tab, targets: core.Targets(bc.tab, deltas[di])}
		}
	}
	methods := allMethods()
	rows := make([]string, len(ctxs)*len(methods))
	err = runCells(cfg.workers(), len(rows), func(i int) error {
		ci, mi := i/len(methods), i%len(methods)
		di, ni := ci/len(sizes), ci%len(sizes)
		ctx, meth := ctxs[ci], methods[mi]
		res, elapsed, err := timedSolve(cfg, ctx, meth.M)
		if err != nil {
			return fmt.Errorf("experiments: fig7 n=%d delta=%.2f %s: %w", sizes[ni], deltas[di], meth.Name, err)
		}
		rows[i] = fmt.Sprintf("%.2f\t%d\t(%s) %s\t%v\t%.3f\n", deltas[di], sizes[ni], meth.ID, meth.Name, elapsed.Round(time.Microsecond), res.PDLoss)
		return nil
	})
	if err != nil {
		return err
	}
	tw := newTabWriter(cfg.out())
	fmt.Fprintln(tw, "Delta\tCandidates\tMethod\tRuntime\tPD_Loss")
	for _, row := range rows {
		fmt.Fprint(tw, row)
	}
	return tw.Flush()
}

// Table3 regenerates paper Table III: Fair-Borda execution time for large
// candidate databases at Delta = 0.33 (|R| = 100, theta = 0.6). Sizes run
// concurrently, each cell generating its own data from its coordinate RNG;
// use Workers: 1 for publication-grade timings.
func Table3(cfg Config) error {
	sizes := []int{1_000, 10_000, 20_000, 50_000, 100_000}
	if cfg.Quick {
		sizes = []int{1_000, 4_000}
	}
	rows := make([]string, len(sizes))
	err := runCells(cfg.workers(), len(sizes), func(si int) error {
		n := sizes[si]
		tab, modal, err := fig7Modal(n, cellRNG(cfg.Seed, "table3modal", si))
		if err != nil {
			return err
		}
		pl := mallows.MustNewPlackettLuce(modal, 0.6)
		p := pl.SampleProfile(100, cellRNG(cfg.Seed, "table3", si))
		targets := core.Targets(tab, 0.33)
		start := time.Now()
		r, err := core.FairBorda(p, targets)
		if err != nil {
			return fmt.Errorf("experiments: table3 n=%d: %w", n, err)
		}
		elapsed := time.Since(start)
		if v, _ := core.MaxViolation(r, targets); v > 0 {
			return fmt.Errorf("experiments: table3 n=%d: output violates targets by %v", n, v)
		}
		rows[si] = fmt.Sprintf("%d\t%.2f\n", n, elapsed.Seconds())
		return nil
	})
	if err != nil {
		return err
	}
	tw := newTabWriter(cfg.out())
	fmt.Fprintln(tw, "|X| Number of Candidates\tExecution time (s)")
	for _, row := range rows {
		fmt.Fprint(tw, row)
	}
	return tw.Flush()
}
