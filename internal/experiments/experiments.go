// Package experiments regenerates every table and figure of the MANI-Rank
// paper's evaluation (Section IV and the appendix): one runner per artifact,
// each printing the same rows/series the paper reports. DESIGN.md maps each
// experiment id to its workload, parameters, and modules; EXPERIMENTS.md
// records paper-reported versus measured values.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"manirank"
	"manirank/internal/attribute"
	"manirank/internal/core"
	"manirank/internal/fairness"
	"manirank/internal/mallows"
	"manirank/internal/ranking"
	"manirank/internal/unfairgen"
)

// Config tunes an experiment run. The zero value runs at paper scale with
// seed 1 on every available CPU.
type Config struct {
	// Seed drives every random component; runs are reproducible per seed.
	// Each method x theta x size cell derives its own RNG from Seed and its
	// coordinates, so results are identical for every Workers value.
	Seed int64
	// Out receives the printed table (defaults to io.Discard if nil; the
	// CLI passes os.Stdout).
	Out io.Writer
	// Quick shrinks the heaviest workloads (fewer rankers, smaller candidate
	// counts) so the full suite finishes in seconds — used by `go test` and
	// the benchmark harness. Paper-scale runs leave it false.
	Quick bool
	// Workers bounds the experiment worker pool: independent cells of each
	// figure/table run concurrently on up to this many goroutines. 0 means
	// one per CPU; 1 runs cells sequentially. Deterministic outputs
	// (rankings, losses, parities) are bitwise identical across values;
	// per-cell Runtime columns in the scalability artifacts are wall-clock
	// and contend under parallelism — time with Workers: 1. Kernel-level
	// parallelism inside a cell (precedence-matrix sharding) is governed
	// separately by ranking.DefaultWorkers; cmd/experiments sets both from
	// its -workers flag so `-workers 1` is fully sequential.
	Workers int
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

// thetas is the consensus sweep used throughout the paper's figures.
var thetas = []float64{0.2, 0.4, 0.6, 0.8}

// solveOptions returns solver options sized to the experiment scale. Solver
// restarts are pinned sequential inside the harness: the cell pool already
// owns the machine's parallelism, and a restart pool per cell would
// oversubscribe the CPUs multiplicatively and contend the wall-clock Runtime
// columns the scalability artifacts report. Restart sharding
// (manirank.WithSolverWorkers) is for single-solve surfaces — manirank
// aggregate and library callers. Solver output is identical for every pool
// width, so this pin never changes a table.
func (c Config) solveOptions() []manirank.SolveOption {
	return []manirank.SolveOption{
		manirank.WithExactThreshold(12),
		manirank.WithMaxNodes(2_000_000),
		manirank.WithSolverWorkers(1),
	}
}

// runCtx bundles one consensus problem instance: the profile, its Engine
// (which owns the shared precedence matrix), and the MANI-Rank targets.
type runCtx struct {
	p       ranking.Profile
	eng     *manirank.Engine
	w       *ranking.Precedence
	tab     *attribute.Table
	targets []core.Target
}

func newRunCtx(p ranking.Profile, tab *attribute.Table, delta float64) (*runCtx, error) {
	eng, err := manirank.NewEngine(p, manirank.WithTable(tab))
	if err != nil {
		return nil, err
	}
	return &runCtx{p: p, eng: eng, w: eng.Precedence(), tab: tab, targets: core.Targets(tab, delta)}, nil
}

// solve routes one method through the instance's Engine with the harness's
// pinned solver options (see Config.solveOptions).
func (c *runCtx) solve(cfg Config, m manirank.Method, targets []core.Target) (*manirank.Result, error) {
	return c.eng.Solve(context.Background(), m, targets, cfg.solveOptions()...)
}

// timedSolve runs one scalability cell and returns its runtime the way the
// paper measures each method (PD loss and auditing are always off-clock):
//
//   - Methods that consume the shared precedence matrix (fair-kemeny,
//     fair-schulze, fair-copeland, kemeny) are timed cold: a fresh matrix
//     construction per cell plus the solve, as a self-contained run of the
//     method would pay.
//   - Fair-Borda is timed on the O(n·|R|) profile path (core.FairBorda):
//     the paper's claim for it — Fig. 6/7 and Tables II/III — is precisely
//     that it scales without a matrix, so routing its *timed* cells over
//     the registry's shared W would change the measured complexity. The
//     ranking is bitwise identical either way (Precedence.Borda property
//     tests), so only the clock, never the data, takes this path.
//   - The profile-consuming baselines (kemeny-weighted, pick-fairest-perm,
//     correct-fairest-perm) never built the shared matrix either —
//     Kemeny-Weighted constructs its own weighted one inside the solve —
//     so they run on the cell's already-built Engine and report the solve
//     time alone.
//
// Untimed figures solve on the cell's shared Engine and ignore the
// returned duration.
func timedSolve(cfg Config, c *runCtx, m manirank.Method) (*manirank.Result, time.Duration, error) {
	switch {
	case m == manirank.MethodFairBorda:
		start := time.Now()
		r, err := core.FairBorda(c.p, c.targets)
		elapsed := time.Since(start)
		if err != nil {
			return nil, 0, err
		}
		return &manirank.Result{
			Ranking: r,
			Method:  m,
			PDLoss:  c.w.PDLoss(r),
			Stats:   manirank.SolveStats{Candidates: c.w.N(), Rankers: c.w.Rankings(), Elapsed: elapsed},
		}, elapsed, nil
	case m.RequiresProfile():
		res, err := c.solve(cfg, m, c.targets)
		if err != nil {
			return nil, 0, err
		}
		return res, res.Stats.Elapsed, nil
	}
	buildStart := time.Now()
	eng, err := manirank.NewEngine(c.p, manirank.WithTable(c.tab))
	build := time.Since(buildStart)
	if err != nil {
		return nil, 0, err
	}
	res, err := eng.Solve(context.Background(), m, c.targets, cfg.solveOptions()...)
	if err != nil {
		return nil, 0, err
	}
	return res, build + res.Stats.Elapsed, nil
}

// methodSpec labels one registry method with the paper's A1-A4 (proposed) /
// B1-B4 (baseline) comparison id. Dispatch itself lives in the engine
// registry — this table only carries the presentation labels.
type methodSpec struct {
	ID   string
	Name string
	M    manirank.Method
}

// allMethods returns the paper's eight-method comparison set (Fig. 4, 6, 7)
// in presentation order.
func allMethods() []methodSpec {
	return []methodSpec{
		{"A1", "Fair-Kemeny", manirank.MethodFairKemeny},
		{"A2", "Fair-Schulze", manirank.MethodFairSchulze},
		{"A3", "Fair-Borda", manirank.MethodFairBorda},
		{"A4", "Fair-Copeland", manirank.MethodFairCopeland},
		{"B1", "Kemeny", manirank.MethodKemeny},
		{"B2", "Kemeny-Weighted", manirank.MethodKemenyWeighted},
		{"B3", "Pick-Fairest-Perm", manirank.MethodPickFairestPerm},
		{"B4", "Correct-Fairest-Perm", manirank.MethodCorrectFairestPerm},
	}
}

// tableIModal builds the named Table I modal ranking over the paper's
// 90-candidate Gender(3) x Race(5) database.
func tableIModal(name string) (*attribute.Table, ranking.Ranking, error) {
	tab, err := unfairgen.PaperTable(90)
	if err != nil {
		return nil, nil, err
	}
	for _, spec := range unfairgen.TableIDatasets() {
		if spec.Name == name {
			modal, err := unfairgen.TargetModal(tab, spec.Levels)
			return tab, modal, err
		}
	}
	return nil, nil, fmt.Errorf("experiments: unknown Table I dataset %q", name)
}

// tableIDatasets builds the tab and modal ranking of every Table I dataset
// once, so dataset x theta fan-outs don't redo the deterministic dataset
// construction in each cell.
func tableIDatasets() ([]unfairgen.MallowsDatasetSpec, []*attribute.Table, []ranking.Ranking, error) {
	specs := unfairgen.TableIDatasets()
	tabs := make([]*attribute.Table, len(specs))
	modals := make([]ranking.Ranking, len(specs))
	for di, spec := range specs {
		var err error
		if tabs[di], modals[di], err = tableIModal(spec.Name); err != nil {
			return nil, nil, nil, err
		}
	}
	return specs, tabs, modals, nil
}

// sampleProfile draws |R| base rankings around modal at spread theta.
func sampleProfile(modal ranking.Ranking, theta float64, m int, rng *rand.Rand) ranking.Profile {
	return mallows.MustNew(modal, theta).SampleProfile(m, rng)
}

// newTabWriter returns a tabwriter aligned for experiment tables.
func newTabWriter(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
}

// auditCols formats the (ARP..., IRP) columns of a ranking for printing.
func auditCols(r ranking.Ranking, tab *attribute.Table) string {
	rep := fairness.Audit(r, tab)
	s := ""
	for _, v := range rep.ARPs {
		s += fmt.Sprintf("%.3f\t", v)
	}
	s += fmt.Sprintf("%.3f", rep.IRP)
	return s
}
