package manirank

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"manirank/internal/fairness"
	"manirank/internal/kemeny"
	"manirank/internal/obs"
	"manirank/internal/ranking"
)

// Engine is the context-first entry point to every consensus method: it is
// constructed once from a Profile (optionally with the candidate Table),
// owns the O(n²) precedence matrix W that all pairwise methods consume, and
// routes Solve calls through the shared method registry. Solving k methods
// over one profile therefore costs one O(n²·m) matrix construction instead
// of k — the library-level form of the serving layer's shared precedence
// tier (DESIGN.md §7–§8).
//
// An Engine is safe for concurrent Solve calls from multiple goroutines.
// The streaming mutation methods (AddRanking, RemoveRanking, UpdateRanking —
// see stream.go) patch the matrix in O(n²) under a write lock that excludes
// in-flight Solves, so a solve never observes a half-applied mutation; an
// engine that is never mutated behaves exactly like the historical
// immutable one.
type Engine struct {
	// mu arbitrates the streaming mutations against Solve: Solve holds the
	// read side for its whole run, mutations take the write side.
	mu  sync.RWMutex
	p   Profile     // nil when constructed from a matrix only (NewEngineW)
	w   *Precedence // always non-nil
	tab *Table      // nil when no candidate table was supplied
	// owned reports that p and w are private to this engine. Constructors
	// leave it false — NewEngine aliases the caller's profile slice and
	// EngineCache.Engine shares a cached matrix — and the first mutation
	// clones both (copy-on-write) so neither the caller's profile nor a
	// cache-resident matrix is ever corrupted.
	owned bool
	// version counts applied mutations (see Version).
	version uint64
}

// engineConfig collects EngineOption state.
type engineConfig struct {
	tab     *Table
	workers int
}

// EngineOption configures the Engine constructors (NewEngine, NewEngineW,
// NewEngineWithMatrix, EngineCache.Engine).
type EngineOption func(*engineConfig)

// WithTable attaches the candidate table X: Solve results gain a full
// fairness audit (Result.Report), and the table-consuming baselines
// (kemeny-weighted, pick-fairest-perm) become solvable. A nil table is
// ignored, so optional-table call sites need no branching.
func WithTable(t *Table) EngineOption {
	return func(c *engineConfig) { c.tab = t }
}

// WithPrecedenceWorkers pins the worker count of the one-time precedence
// matrix construction: 1 forces the serial kernel, and 0 — the same as
// leaving the option out — auto-sizes the pool from ranking.DefaultWorkers
// (GOMAXPROCS unless a CLI's -workers flag set it). The matrix is bitwise
// identical for every width. Constructors handed a built matrix
// (NewEngineW, NewEngineWithMatrix, an EngineCache hit) ignore it.
func WithPrecedenceWorkers(n int) EngineOption {
	return func(c *engineConfig) { c.workers = n }
}

// newEngine is the tail every constructor shares: it folds opts, gets W
// from matrix (handed the WithPrecedenceWorkers width), checks the table
// against W, and builds the Engine over p (nil for a matrix-only engine).
func newEngine(p Profile, opts []EngineOption, matrix func(workers int) (*Precedence, error)) (*Engine, error) {
	var cfg engineConfig
	for _, o := range opts {
		o(&cfg)
	}
	w, err := matrix(cfg.workers)
	if err != nil {
		return nil, err
	}
	if cfg.tab != nil && cfg.tab.N() != w.N() {
		return nil, fmt.Errorf("manirank: table covers %d candidates, engine ranks %d", cfg.tab.N(), w.N())
	}
	return &Engine{p: p, w: w, tab: cfg.tab}, nil
}

// builtMatrix is the matrix source of the constructors handed a built W.
func builtMatrix(w *Precedence) func(int) (*Precedence, error) {
	return func(int) (*Precedence, error) { return w, nil }
}

// NewEngine validates the profile, builds its precedence matrix once, and
// returns an Engine over it. The construction is the only O(n²·m) cost;
// every subsequent Solve reuses the matrix.
func NewEngine(p Profile, opts ...EngineOption) (*Engine, error) {
	return newEngine(p, opts, func(workers int) (*Precedence, error) {
		return ranking.NewPrecedenceWorkers(p, workers)
	})
}

// NewEngineW wraps an already-built precedence matrix — the entry point for
// callers that obtained W from a cache tier (manirankd's matrix cache) or
// another Engine. The resulting Engine has no profile, so methods for which
// Method.RequiresProfile is true return ErrProfileRequired from Solve.
func NewEngineW(w *Precedence, opts ...EngineOption) (*Engine, error) {
	if w == nil {
		return nil, errors.New("manirank: nil precedence matrix")
	}
	return newEngine(nil, opts, builtMatrix(w))
}

// Validation errors returned by Engine.Solve.
var (
	// ErrProfileRequired: the method consumes the base rankings, but the
	// Engine was constructed from a matrix only (NewEngineW).
	ErrProfileRequired = errors.New("manirank: method requires the base profile, engine was built from a precedence matrix only")
	// ErrTableRequired: the method consumes the candidate table, but the
	// Engine was constructed without WithTable.
	ErrTableRequired = errors.New("manirank: method requires a candidate table (construct the engine WithTable)")
)

// N returns the candidate count.
func (e *Engine) N() int { return e.w.N() }

// Rankers returns the number of base rankings the precedence matrix
// aggregates.
func (e *Engine) Rankers() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.w.Rankings()
}

// Precedence returns the engine's shared precedence matrix. Callers must
// not mutate it, and on an engine that receives streaming mutations the
// pointer may be stale the moment it is returned — snapshot it with
// PrecedenceSnapshot when the matrix must outlive concurrent mutations.
func (e *Engine) Precedence() *Precedence {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.w
}

// PrecedenceSnapshot returns a deep copy of the engine's precedence matrix,
// taken atomically with respect to the streaming mutations — the handoff a
// cache tier needs before admitting a mutable engine's matrix.
func (e *Engine) PrecedenceSnapshot() *Precedence {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.w.Clone()
}

// Table returns the candidate table the engine audits against, or nil.
func (e *Engine) Table() *Table { return e.tab }

// solveConfig collects SolveOption state. The zero value is the package
// default (deterministic seed 0, default exact threshold and node budget,
// auto-sized restart pool).
type solveConfig struct {
	kemeny kemeny.Options
}

// SolveOption tunes one Solve call. Each option sets one knob of the Kemeny
// engines; the polynomial methods ignore them all.
type SolveOption func(*solveConfig)

// WithSeed pins the seed of the Kemeny heuristic's randomised restarts.
// Results are deterministic per (input, options); two Solves with the same
// seed are bitwise identical.
func WithSeed(seed int64) SolveOption {
	return func(c *solveConfig) { c.kemeny.Seed = seed }
}

// WithPerturbations sets the iterated-local-search restart count of the
// Kemeny heuristic (negative disables restarts).
func WithPerturbations(n int) SolveOption {
	return func(c *solveConfig) { c.kemeny.Perturbations = n }
}

// WithStrength sets the number of random moves per heuristic perturbation.
func WithStrength(n int) SolveOption {
	return func(c *solveConfig) { c.kemeny.Strength = n }
}

// WithExactThreshold bounds the exact branch-and-bound Kemeny engine: it
// runs when n is at or below the threshold (package default 12).
func WithExactThreshold(n int) SolveOption {
	return func(c *solveConfig) { c.kemeny.ExactThreshold = n }
}

// WithMaxNodes bounds the exact search's node budget; on exhaustion the
// best ranking found is returned.
func WithMaxNodes(n int64) SolveOption {
	return func(c *solveConfig) { c.kemeny.MaxNodes = n }
}

// WithSolverWorkers shards the Kemeny restart loops over a worker pool (0
// auto-sizes, 1 is sequential). Output is bitwise identical for every width.
func WithSolverWorkers(n int) SolveOption {
	return func(c *solveConfig) { c.kemeny.Workers = n }
}

// WithWarmStart seeds the Kemeny searches from r — typically the consensus
// of the previous Solve — instead of a cold Borda seed. After a streaming
// mutation (AddRanking / RemoveRanking / UpdateRanking) the previous
// consensus is one ranking away from the new optimum, so the warm descent
// converges in far fewer passes; for the fair methods a still-feasible warm
// ranking additionally replaces the whole unconstrained-incumbent phase
// (fairness depends only on the ranking and attributes, never the profile,
// so mutations cannot invalidate feasibility). The ranking is cloned before
// use. Warm results are deterministic per (input, r, options) and bitwise
// identical for every WithSolverWorkers width, but not necessarily equal to
// a cold solve — the searches explore from different local optima. A nil r,
// or one that is not a permutation of the engine's candidates (wrong length,
// a duplicate, an out-of-range id), is ignored (cold solve).
func WithWarmStart(r Ranking) SolveOption {
	return func(c *solveConfig) { c.kemeny.Warm = r }
}

// Result is the complete outcome of one Engine.Solve: the consensus ranking
// together with everything the repo's surfaces used to compute separately —
// PD loss against the profile, the fairness audit, the partial flag for
// deadline-truncated searches, and solve statistics.
type Result struct {
	// Ranking is the consensus ranking, top candidate first.
	Ranking Ranking
	// Method is the registry method that produced the ranking.
	Method Method
	// PDLoss is the pairwise disagreement loss of Ranking against the
	// engine's profile, in [0, 1] (paper Def. 9): exactly
	// Precedence().PDLoss(Ranking), bit for bit. The Kemeny-based methods
	// track their ranking's cost through the search and convert it with
	// Precedence.PDLossOfCost; the others pay one KemenyCost pass over the
	// shared matrix.
	PDLoss float64
	// Report is the full MANI-Rank fairness audit of Ranking (per-group
	// FPRs, per-attribute ARPs, IRP); nil when the engine has no Table.
	Report *Report
	// Partial is true when ctx expired mid-solve and the ranking is the
	// search's best-so-far rather than its converged answer. Only the
	// Kemeny-based methods are cancellable; for fair methods a partial
	// result still satisfies the targets.
	Partial bool
	// Stats describes the solve.
	Stats SolveStats
}

// SolveStats carries per-solve measurements.
type SolveStats struct {
	// Candidates is the instance's candidate count n.
	Candidates int
	// Rankers is the number of base rankings aggregated.
	Rankers int
	// Elapsed is the wall-clock duration of the solve alone — it excludes
	// the engine's one-time matrix construction and the Result's PD-loss /
	// audit bookkeeping. That bookkeeping includes an O(n²) KemenyCost
	// pass only for the methods that do not track their cost (PDLoss).
	Elapsed time.Duration
}

// Solve runs one registered method over the engine's shared precedence
// matrix and returns the full Result. ctx carries the caller's deadline:
// the Kemeny-based engines stop cooperatively when it expires and return
// their best-so-far ranking flagged Partial (for fair methods, still a
// feasible one); the polynomial methods always run to completion.
//
// targets are the MANI-Rank parity bounds fair methods enforce (Targets,
// TargetsWithThresholds); fairness-unaware methods ignore them. Passing an
// empty target set to a fair method degenerates to its unaware counterpart
// (the repair has nothing to enforce).
//
// Solve is safe to call concurrently.
func (e *Engine) Solve(ctx context.Context, m Method, targets []Target, opts ...SolveOption) (*Result, error) {
	ent, ok := entryOf(m)
	if !ok {
		return nil, fmt.Errorf("manirank: unknown method %d (parse names with ParseMethod)", m)
	}
	if ent.profile && e.p == nil {
		return nil, fmt.Errorf("%w: %s", ErrProfileRequired, ent.name)
	}
	if ent.table && e.tab == nil {
		return nil, fmt.Errorf("%w: %s", ErrTableRequired, ent.name)
	}
	var cfg solveConfig
	for _, o := range opts {
		o(&cfg)
	}
	// The read lock spans the solve AND the bookkeeping below: a streaming
	// mutation can neither flip the matrix mid-search nor between the search
	// and the PD-loss/audit scans, so everything in one Result describes one
	// consistent profile state.
	e.mu.RLock()
	defer e.mu.RUnlock()
	start := time.Now()
	endSolve := obs.StartSpan(ctx, "solve")
	r, cost, partial, err := ent.solve(ctx, e, targets, cfg.kemeny)
	endSolve()
	// The clock stops here: the PD-loss scan and the audit below are result
	// bookkeeping, not solve work, and must not be charged to Elapsed (the
	// scalability experiments report it).
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	if cost == noCost {
		cost = e.w.KemenyCost(r)
	}
	res := &Result{
		Ranking: r,
		Method:  m,
		PDLoss:  e.w.PDLossOfCost(cost),
		Partial: partial,
		Stats: SolveStats{
			Candidates: e.w.N(),
			Rankers:    e.w.Rankings(),
			Elapsed:    elapsed,
		},
	}
	if e.tab != nil {
		rep := fairness.Audit(r, e.tab)
		res.Report = &rep
	}
	return res, nil
}
