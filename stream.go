package manirank

import (
	"errors"
	"fmt"
)

// This file is the streaming-profile half of the Engine API (ROADMAP item
// 5): rankers arrive, update, and retract after construction, and each
// mutation patches the shared O(n²) precedence matrix in place instead of
// re-paying the O(n²·m) rebuild. Every mutation path is pinned bitwise
// against a from-scratch NewEngine by the property tests in
// engine_stream_test.go and the FuzzIncrementalPrecedence corpus.

// ErrRankerIndex reports a RemoveRanking / UpdateRanking index outside the
// engine's current profile.
var ErrRankerIndex = errors.New("manirank: ranker index out of range")

// NewEngineWithMatrix wraps an already-built precedence matrix TOGETHER with
// the profile it summarises — unlike NewEngineW, the resulting engine can
// solve profile-consuming methods and accept streaming mutations. The
// matrix must actually summarise p (same candidate count, one contribution
// per ranking); callers that built w elsewhere — a serving tier's matrix
// cache keyed by the profile digest — carry that guarantee by construction,
// and the shape is validated here. Neither p nor w is copied: the engine
// copy-on-writes both on the first mutation, so cache-resident matrices are
// never corrupted.
func NewEngineWithMatrix(p Profile, w *Precedence, opts ...EngineOption) (*Engine, error) {
	if w == nil {
		return nil, errors.New("manirank: nil precedence matrix")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.N() != w.N() {
		return nil, fmt.Errorf("manirank: matrix ranks %d candidates, profile ranks %d", w.N(), p.N())
	}
	if len(p) != w.Rankings() {
		return nil, fmt.Errorf("manirank: matrix aggregates %d rankings, profile holds %d", w.Rankings(), len(p))
	}
	return newEngine(p, opts, builtMatrix(w))
}

// Profile returns a deep copy of the engine's current base profile,
// consistent with respect to concurrent mutations. Engines constructed from
// a matrix only (NewEngineW) return nil.
func (e *Engine) Profile() Profile {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.p == nil {
		return nil
	}
	return e.p.Clone()
}

// Version returns the number of streaming mutations applied to the engine
// so far — a cheap staleness check for callers that key caches or warm
// seeds off a specific profile state.
func (e *Engine) Version() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.version
}

// AddRanking appends one base ranking to the profile and folds it into the
// precedence matrix in O(n²). The matrix afterwards is bitwise identical to
// NewEngine over the extended profile. r is cloned; the engine requires a
// profile (ErrProfileRequired from NewEngineW-built engines) because the
// profile is the ground truth the removal paths patch against.
func (e *Engine) AddRanking(r Ranking) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.p == nil {
		return fmt.Errorf("%w: AddRanking", ErrProfileRequired)
	}
	e.ensureOwnedLocked()
	if err := e.w.AddRanking(r); err != nil {
		return err
	}
	e.p = append(e.p, r.Clone())
	e.version++
	return nil
}

// RemoveRanking retracts the base ranking at profile index i, subtracting
// its contribution from the precedence matrix in O(n²), and returns the
// removed ranking. The matrix afterwards is bitwise identical to NewEngine
// over the shrunken profile. Removing the last ranking is allowed — the
// engine keeps serving (solves over an empty profile are degenerate but
// well-defined: every cell is zero).
func (e *Engine) RemoveRanking(i int) (Ranking, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.p == nil {
		return nil, fmt.Errorf("%w: RemoveRanking", ErrProfileRequired)
	}
	if i < 0 || i >= len(e.p) {
		return nil, fmt.Errorf("%w: %d of %d", ErrRankerIndex, i, len(e.p))
	}
	e.ensureOwnedLocked()
	removed := e.p[i]
	if err := e.w.RemoveRanking(removed); err != nil {
		return nil, err
	}
	e.p = append(e.p[:i], e.p[i+1:]...)
	e.version++
	return removed, nil
}

// UpdateRanking replaces the base ranking at profile index i with r — the
// remove-then-add composition done as one O(n²) patch pass pair under a
// single critical section, so no Solve can observe the intermediate
// (removed-but-not-re-added) state. r is cloned.
func (e *Engine) UpdateRanking(i int, r Ranking) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.p == nil {
		return fmt.Errorf("%w: UpdateRanking", ErrProfileRequired)
	}
	if i < 0 || i >= len(e.p) {
		return fmt.Errorf("%w: %d of %d", ErrRankerIndex, i, len(e.p))
	}
	// Validate the replacement BEFORE subtracting the old contribution, so a
	// rejected update leaves the matrix untouched rather than half-patched.
	if len(r) != e.w.N() {
		return fmt.Errorf("manirank: UpdateRanking got %d candidates, profile ranks %d", len(r), e.w.N())
	}
	if err := r.Validate(); err != nil {
		return err
	}
	e.ensureOwnedLocked()
	if err := e.w.RemoveRanking(e.p[i]); err != nil {
		return err
	}
	if err := e.w.AddRanking(r); err != nil {
		// Unreachable given the validation above, but never leave the matrix
		// missing the old contribution.
		_ = e.w.AddRanking(e.p[i])
		return err
	}
	e.p[i] = r.Clone()
	e.version++
	return nil
}

// ensureOwnedLocked makes the engine's profile and matrix private before
// the first mutation: NewEngine aliases the caller's profile slice and
// EngineCache.Engine shares a cache-resident matrix, and neither may be
// mutated in place. Callers hold e.mu.
func (e *Engine) ensureOwnedLocked() {
	if e.owned {
		return
	}
	e.p = e.p.Clone()
	e.w = e.w.Clone()
	e.owned = true
}
