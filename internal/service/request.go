package service

import (
	"fmt"
	"strings"

	"manirank"
	"manirank/internal/attribute"
	"manirank/internal/core"
	"manirank/internal/fairness"
	"manirank/internal/ranking"
)

// Methods lists every consensus method the service exposes, in the order
// they are documented. It is derived from the engine registry
// (manirank.Methods), so the service's accepted values can never drift
// from the library's or the CLI's. Fair variants require Attributes plus
// Delta or Thresholds.
var Methods = manirank.MethodNames()

// AttributeSpec is the wire form of one protected attribute: a name, its
// value domain, and each candidate's value index.
type AttributeSpec struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
	Of     []int    `json:"of"`
}

// SolverOptions is the wire form of the Kemeny engine tuning knobs. The zero
// value means server defaults. All fields participate in the request digest —
// two requests differing only in, say, Seed are distinct cache entries,
// because the solvers are deterministic per (input, options).
type SolverOptions struct {
	// Seed drives the heuristic's randomised restarts.
	Seed int64 `json:"seed,omitempty"`
	// Perturbations is the iterated-local-search restart count (negative
	// disables restarts).
	Perturbations int `json:"perturbations,omitempty"`
	// Strength is the number of random moves per perturbation.
	Strength int `json:"strength,omitempty"`
	// ExactThreshold bounds the exact branch-and-bound engine's n.
	ExactThreshold int `json:"exact_threshold,omitempty"`
	// MaxNodes bounds the exact search's node budget.
	MaxNodes int64 `json:"max_nodes,omitempty"`
}

// AggregateRequest is the POST /v1/aggregate body.
type AggregateRequest struct {
	// Method is one of Methods.
	Method string `json:"method"`
	// Profile is the base rankings, one row per ranker, candidate ids from
	// top to bottom; every row must be a permutation of 0..n-1.
	Profile ProfileRows `json:"profile"`
	// Attributes is the candidate table; required for fair-* methods,
	// optional otherwise (enables the audit in the response).
	Attributes []AttributeSpec `json:"attributes,omitempty"`
	// Delta is the uniform MANI-Rank parity threshold in (0, 1].
	Delta float64 `json:"delta,omitempty"`
	// Thresholds overrides Delta per attribute name; the key
	// "intersection" (case-insensitive) sets the IRP threshold.
	// Attributes not named fall back to Delta.
	Thresholds map[string]float64 `json:"thresholds,omitempty"`
	// Options tunes the Kemeny engines.
	Options SolverOptions `json:"options,omitempty"`
	// DeadlineMillis caps this request's compute time; 0 means the server
	// default. On expiry mid-solve the engines return their best-so-far
	// ranking, flagged "partial" and excluded from the cache. The deadline
	// does not participate in the digest.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// problem is a validated, solver-ready request: the domain objects every
// method consumes, plus the two cache keys (computed once here — the full
// request digest for the result tier, the profile sub-digest for the
// precedence-matrix tier).
type problem struct {
	method     manirank.Method
	profile    ranking.Profile
	tab        *attribute.Table // nil when no attributes were given
	targets    []core.Target    // nil for unfair methods
	opts       SolverOptions
	digest     string // full request digest (result-cache key)
	profDigest string // profile sub-digest (matrix-cache key)
}

// interThresholdKey matches a Thresholds entry addressing the intersection
// pseudo-attribute.
func interThresholdKey(k string) bool { return strings.EqualFold(k, "intersection") }

// buildProblem validates req and lowers it onto the domain types. Every
// error is a client error (HTTP 400).
func buildProblem(req *AggregateRequest) (*problem, error) {
	method, err := manirank.ParseMethod(req.Method)
	if err != nil || method.Baseline() {
		// Baselines parse (the registry knows them) but are not part of the
		// served surface; reject them with the same message an unknown name
		// gets, listing exactly the methods this endpoint accepts.
		return nil, fmt.Errorf("unknown method %q (want one of %s)", req.Method, strings.Join(Methods, ", "))
	}
	if len(req.Profile) == 0 {
		return nil, fmt.Errorf("empty profile")
	}
	p := req.Profile.profile()
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("invalid profile: %w", err)
	}

	pb := &problem{method: method, profile: p, opts: req.Options}
	pb.digest, pb.profDigest = Digests(req)
	if len(req.Attributes) > 0 {
		attrs := make([]*attribute.Attribute, len(req.Attributes))
		for i, spec := range req.Attributes {
			a, err := attribute.NewAttribute(spec.Name, spec.Values, spec.Of)
			if err != nil {
				return nil, fmt.Errorf("invalid attribute %d: %w", i, err)
			}
			attrs[i] = a
		}
		tab, err := attribute.NewTable(p.N(), attrs...)
		if err != nil {
			return nil, fmt.Errorf("invalid candidate table: %w", err)
		}
		pb.tab = tab
	}
	// Lower Delta and Thresholds onto fairness.Thresholds: an attribute's
	// override is matched by exact name, the intersection's by any spelling.
	th := fairness.Thresholds{Default: req.Delta, PerAttr: req.Thresholds, Inter: -1}
	interKeys := 0
	for k, v := range req.Thresholds {
		if interThresholdKey(k) {
			// At most one spelling: duplicates would be resolved by map
			// iteration order, i.e. nondeterministically per run — the one
			// thing a digest-keyed cache cannot tolerate.
			if interKeys++; interKeys > 1 {
				return nil, fmt.Errorf("thresholds name the intersection more than once")
			}
			th.Inter = v
			continue
		}
		if pb.tab == nil || pb.tab.Attr(k) == nil {
			return nil, fmt.Errorf("thresholds name unknown attribute %q", k)
		}
	}

	if !method.IsFair() {
		return pb, nil
	}
	if pb.tab == nil {
		return nil, fmt.Errorf("method %q requires attributes", method.String())
	}
	if req.Delta == 0 && len(req.Thresholds) == 0 {
		return nil, fmt.Errorf("method %q requires delta or thresholds", method.String())
	}
	pb.targets = core.TargetsWithThresholds(pb.tab, th)
	for i, tg := range pb.targets {
		name, d := tg.Attr.Name, tg.Delta
		if i == len(pb.targets)-1 {
			name = "intersection" // the last target; its Attr has a joined name
			if interKeys > 0 {
				d = th.Inter // ForInter reads a negative override as unset
			}
		}
		if d <= 0 || d > 1 {
			return nil, fmt.Errorf("threshold for %q is %g, want (0, 1]", name, d)
		}
	}
	return pb, nil
}
