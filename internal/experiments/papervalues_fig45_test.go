package experiments

import (
	"math"
	"os"
	"testing"

	"manirank"
	"manirank/internal/core"
)

// This file transcribes the paper-reported Figure 4 PD-loss and Figure 5
// Price-of-Fairness series (the remaining ROADMAP paper-value-comparison
// item after Table I). The figures print at coarse axis resolution, so the
// transcription carries two decimals and the comparison reuses Table I's
// tolerance: the block-construction dataset generator and the CPLEX→
// branch-and-bound/local-search substitution can only approximate the
// paper's exact numbers (see DESIGN.md, Substitutions).
//
// Both tests regenerate the exact experiment cells — same cell RNG labels
// and coordinates as the Fig4/Fig5 runners, seed 1, paper scale (150
// rankers), solver options pinned by Config.solveOptions — and route
// through the Engine registry like the runners do.

// paperFig4PDLoss transcribes Figure 4's Low-Fair PD-loss series at
// Delta = 0.1 for the methods whose curves are separable in the figure:
// the proposed Fair-Kemeny (lowest fair curve), Fair-Borda (the repair
// ceiling among the polynomial fair methods), and the fairness-unaware
// Kemeny reference near zero.
var paperFig4PDLoss = []struct {
	method manirank.Method
	name   string
	byTheta
}{
	{manirank.MethodFairKemeny, "Fair-Kemeny", byTheta{0.41, 0.40, 0.39, 0.38}},
	{manirank.MethodFairBorda, "Fair-Borda", byTheta{0.43, 0.43, 0.42, 0.42}},
	{manirank.MethodKemeny, "Kemeny", byTheta{0.09, 0.04, 0.03, 0.02}},
}

// byTheta holds one reported value per entry of the thetas sweep
// (0.2, 0.4, 0.6, 0.8).
type byTheta [4]float64

// paperFig5PoF transcribes Figure 5 Panel A: Fair-Kemeny's Price of
// Fairness against theta on the three Table I datasets at Delta = 0.1.
var paperFig5PoF = []struct {
	dataset string
	byTheta
}{
	{"Low-Fair", byTheta{0.32, 0.35, 0.37, 0.37}},
	{"Medium-Fair", byTheta{0.25, 0.27, 0.28, 0.29}},
	{"High-Fair", byTheta{0.15, 0.17, 0.18, 0.18}},
}

// skipOnExpectedDrift honours the golden-drift escape hatch shared with
// TestPaperReportedTableIValues.
func skipOnExpectedDrift(t *testing.T) {
	t.Helper()
	if os.Getenv("MANIRANK_EXPECT_DRIFT") != "" {
		t.Skip("MANIRANK_EXPECT_DRIFT set: regeneration drift expected, paper-value comparison suspended")
	}
}

// TestPaperReportedFig4PDLossSeries anchors the regenerated Figure 4
// PD-loss series to the paper's reported curves.
func TestPaperReportedFig4PDLossSeries(t *testing.T) {
	skipOnExpectedDrift(t)
	cfg := Config{Seed: 1}
	tab, modal, err := tableIModal("Low-Fair")
	if err != nil {
		t.Fatal(err)
	}
	for ti, theta := range thetas {
		p := sampleProfile(modal, theta, 150, cellRNG(cfg.Seed, "fig4", ti))
		ctx, err := newRunCtx(p, tab, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range paperFig4PDLoss {
			res, err := ctx.solve(cfg, want.method, ctx.targets)
			if err != nil {
				t.Fatalf("theta=%.1f %s: %v", theta, want.name, err)
			}
			if diff := math.Abs(res.PDLoss - want.byTheta[ti]); diff > paperTolerance {
				t.Errorf("%s theta=%.1f PD loss = %.3f, paper reports %.2f (tolerance %.2f)",
					want.name, theta, res.PDLoss, want.byTheta[ti], paperTolerance)
			}
		}
	}
}

// TestPaperReportedFig5PoFSeries anchors the regenerated Figure 5 Panel A
// Price-of-Fairness series to the paper's reported curves.
func TestPaperReportedFig5PoFSeries(t *testing.T) {
	skipOnExpectedDrift(t)
	cfg := Config{Seed: 1}
	specs, tabs, modals, err := tableIDatasets()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range paperFig5PoF {
		di := -1
		for i, spec := range specs {
			if spec.Name == want.dataset {
				di = i
				break
			}
		}
		if di < 0 {
			t.Fatalf("unknown Table I dataset %q", want.dataset)
		}
		for ti, theta := range thetas {
			p := sampleProfile(modals[di], theta, 150, cellRNG(cfg.Seed, "fig5a", di, ti))
			ctx, err := newRunCtx(p, tabs[di], 0.1)
			if err != nil {
				t.Fatal(err)
			}
			unfair, err := ctx.solve(cfg, manirank.MethodKemeny, nil)
			if err != nil {
				t.Fatal(err)
			}
			fair, err := ctx.solve(cfg, manirank.MethodFairKemeny, ctx.targets)
			if err != nil {
				t.Fatal(err)
			}
			pof := core.PriceOfFairnessW(ctx.w, fair.Ranking, unfair.Ranking)
			if diff := math.Abs(pof - want.byTheta[ti]); diff > paperTolerance {
				t.Errorf("%s theta=%.1f PoF = %.4f, paper reports %.2f (tolerance %.2f)",
					want.dataset, theta, pof, want.byTheta[ti], paperTolerance)
			}
		}
	}
}
