package manirank

import (
	"context"
	"fmt"
	"strings"

	"manirank/internal/aggregate"
	"manirank/internal/core"
	"manirank/internal/kemeny"
)

// Method identifies one consensus method in the Engine's solver registry.
// It is the first-class, parseable form of the method names every surface
// of this repo shares — the library (Engine.Solve), the manirank CLI's
// -method flag, and manirankd's "method" request field all resolve through
// ParseMethod, so the accepted sets can never drift apart.
//
// The zero Method is invalid; valid values are the Method... constants.
type Method uint8

// The registered consensus methods. MethodBorda through MethodFairKemeny
// are the paper's eight-method family (four fairness-unaware aggregators
// and their MANI-Rank fair counterparts, Sections III-B and IV); the
// remaining constants are the paper's Section IV-B comparison baselines,
// solvable through the Engine but not exposed by the CLI or the service
// (Baselines lists them; Methods lists the eight).
const (
	// MethodInvalid is the zero Method; it has no registry entry.
	MethodInvalid Method = iota
	// MethodBorda is the fairness-unaware Borda count.
	MethodBorda
	// MethodCopeland is the fairness-unaware Copeland pairwise-contest rule.
	MethodCopeland
	// MethodSchulze is the fairness-unaware Schulze strongest-path rule.
	MethodSchulze
	// MethodKemeny is fairness-unaware Kemeny: exact branch-and-bound for
	// small n, Borda-seeded iterated local search at scale.
	MethodKemeny
	// MethodFairBorda is Borda + Make-MR-Fair repair (paper Section III-B).
	MethodFairBorda
	// MethodFairCopeland is Copeland + Make-MR-Fair repair.
	MethodFairCopeland
	// MethodFairSchulze is Schulze + Make-MR-Fair repair.
	MethodFairSchulze
	// MethodFairKemeny is the paper's Algorithm 1: constrained
	// branch-and-bound for small n, constrained local search at scale.
	MethodFairKemeny
	// MethodKemenyWeighted is the paper's Kemeny-Weighted baseline: base
	// rankings weighted by fairness rank before Kemeny aggregation.
	MethodKemenyWeighted
	// MethodPickFairestPerm is the paper's Pick-Fairest-Perm baseline: the
	// base ranking with the smallest maximum parity violation.
	MethodPickFairestPerm
	// MethodCorrectFairestPerm is the paper's Correct-Fairest-Perm baseline:
	// Pick-Fairest-Perm followed by Make-MR-Fair repair.
	MethodCorrectFairestPerm
)

// methodEntry is one row of the solver registry: the method's canonical
// name, its input requirements, and the solve routine over the Engine's
// shared state. The routine returns the ranking, its exact Kemeny cost
// against the engine's matrix when the search tracked it (noCost when it did
// not, and Engine.Solve then counts it), and whether a done context
// truncated the search (only the Kemeny-based engines are cancellable; the
// polynomial methods always run to completion).
type methodEntry struct {
	method   Method
	name     string
	fair     bool // enforces MANI-Rank targets (Make-MR-Fair or constrained search)
	baseline bool // Section IV-B comparison baseline, absent from Methods()
	profile  bool // consumes the base rankings themselves, not just W
	table    bool // consumes the candidate table beyond the audit
	solve    func(ctx context.Context, e *Engine, targets []Target, opts kemeny.Options) (r Ranking, cost int, partial bool, err error)
}

// noCost is the cost a registry solve reports when its search did not track
// the ranking's Kemeny cost; a real cost is never negative.
const noCost = -1

// registry is the single dispatch table behind every surface: Engine.Solve
// resolves methods here, and Methods/Baselines/ParseMethod derive the
// public method sets from it, so adding a row is the whole integration.
// Order is the documented presentation order.
var registry = []methodEntry{
	{method: MethodBorda, name: "borda",
		solve: func(_ context.Context, e *Engine, _ []Target, _ kemeny.Options) (Ranking, int, bool, error) {
			return e.w.Borda(), noCost, false, nil
		}},
	{method: MethodCopeland, name: "copeland",
		solve: func(_ context.Context, e *Engine, _ []Target, _ kemeny.Options) (Ranking, int, bool, error) {
			return aggregate.Copeland(e.w), noCost, false, nil
		}},
	{method: MethodSchulze, name: "schulze",
		solve: func(_ context.Context, e *Engine, _ []Target, _ kemeny.Options) (Ranking, int, bool, error) {
			return aggregate.Schulze(e.w), noCost, false, nil
		}},
	{method: MethodKemeny, name: "kemeny",
		solve: func(ctx context.Context, e *Engine, _ []Target, opts kemeny.Options) (Ranking, int, bool, error) {
			in := aggregate.Kemeny(ctx, e.w, opts)
			return in.Ranking(), in.Cost(), ctx.Err() != nil, nil
		}},
	{method: MethodFairBorda, name: "fair-borda", fair: true,
		solve: func(_ context.Context, e *Engine, targets []Target, _ kemeny.Options) (Ranking, int, bool, error) {
			r, err := core.FairBordaW(e.w, targets)
			return r, noCost, false, err
		}},
	{method: MethodFairCopeland, name: "fair-copeland", fair: true,
		solve: func(_ context.Context, e *Engine, targets []Target, _ kemeny.Options) (Ranking, int, bool, error) {
			r, err := core.FairCopelandW(e.w, targets)
			return r, noCost, false, err
		}},
	{method: MethodFairSchulze, name: "fair-schulze", fair: true,
		solve: func(_ context.Context, e *Engine, targets []Target, _ kemeny.Options) (Ranking, int, bool, error) {
			r, err := core.FairSchulzeW(e.w, targets)
			return r, noCost, false, err
		}},
	{method: MethodFairKemeny, name: "fair-kemeny", fair: true,
		solve: func(ctx context.Context, e *Engine, targets []Target, opts kemeny.Options) (Ranking, int, bool, error) {
			r, cost, err := core.FairKemenyW(ctx, e.w, targets, opts)
			return r, cost, err == nil && ctx.Err() != nil, err
		}},
	{method: MethodKemenyWeighted, name: "kemeny-weighted", baseline: true, profile: true, table: true,
		solve: func(_ context.Context, e *Engine, _ []Target, opts kemeny.Options) (Ranking, int, bool, error) {
			r, err := aggregate.KemenyWeighted(e.p, e.tab, opts)
			return r, noCost, false, err
		}},
	{method: MethodPickFairestPerm, name: "pick-fairest-perm", baseline: true, profile: true, table: true,
		solve: func(_ context.Context, e *Engine, _ []Target, _ kemeny.Options) (Ranking, int, bool, error) {
			r, err := aggregate.PickFairestPerm(e.p, e.tab)
			return r, noCost, false, err
		}},
	{method: MethodCorrectFairestPerm, name: "correct-fairest-perm", fair: true, baseline: true, profile: true,
		solve: func(_ context.Context, e *Engine, targets []Target, _ kemeny.Options) (Ranking, int, bool, error) {
			r, err := core.CorrectFairestPerm(e.p, targets)
			return r, noCost, false, err
		}},
}

// entryOf resolves a Method to its registry row.
func entryOf(m Method) (*methodEntry, bool) {
	for i := range registry {
		if registry[i].method == m {
			return &registry[i], true
		}
	}
	return nil, false
}

// Methods returns the paper's eight-method family in presentation order —
// the methods the manirank CLI and the manirankd service accept. The slice
// is freshly allocated; callers may reorder it.
func Methods() []Method {
	ms := make([]Method, 0, len(registry))
	for _, e := range registry {
		if !e.baseline {
			ms = append(ms, e.method)
		}
	}
	return ms
}

// Baselines returns the paper's Section IV-B comparison baselines —
// registered Engine methods that are not part of the CLI/service surface.
func Baselines() []Method {
	ms := make([]Method, 0, 3)
	for _, e := range registry {
		if e.baseline {
			ms = append(ms, e.method)
		}
	}
	return ms
}

// AllMethods returns every registered method: Methods() followed by
// Baselines().
func AllMethods() []Method {
	ms := make([]Method, len(registry))
	for i, e := range registry {
		ms[i] = e.method
	}
	return ms
}

// MethodNames returns the canonical names of Methods(), ready for CLI usage
// strings and service documentation.
func MethodNames() []string {
	ms := Methods()
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.String()
	}
	return names
}

// ParseMethod resolves a method name (case-insensitive, e.g. "fair-kemeny")
// to its Method. It accepts every registered method, baselines included; use
// Method.Baseline to restrict a surface to the canonical eight. The error
// lists the accepted names.
func ParseMethod(s string) (Method, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	for _, e := range registry {
		if e.name == name {
			return e.method, nil
		}
	}
	return MethodInvalid, fmt.Errorf("manirank: unknown method %q (want one of %s)",
		s, strings.Join(MethodNames(), ", "))
}

// String returns the method's canonical name ("fair-kemeny"), the exact
// string ParseMethod accepts; the zero and any unregistered Method render
// as "invalid".
func (m Method) String() string {
	if e, ok := entryOf(m); ok {
		return e.name
	}
	return "invalid"
}

// IsFair reports whether the method enforces MANI-Rank fairness targets
// (the fair-* family plus Correct-Fairest-Perm).
func (m Method) IsFair() bool {
	e, ok := entryOf(m)
	return ok && e.fair
}

// Baseline reports whether the method is a Section IV-B comparison baseline
// — solvable through the Engine but excluded from Methods() and therefore
// from the CLI and service surfaces.
func (m Method) Baseline() bool {
	e, ok := entryOf(m)
	return ok && e.baseline
}

// RequiresProfile reports whether the method consumes the base rankings
// themselves (beyond the precedence matrix), so an Engine constructed with
// NewEngineW cannot solve it.
func (m Method) RequiresProfile() bool {
	e, ok := entryOf(m)
	return ok && e.profile
}

// RequiresTable reports whether the method consumes the candidate table as
// a solver input (not merely for the result audit).
func (m Method) RequiresTable() bool {
	e, ok := entryOf(m)
	return ok && e.table
}
