package manirank_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"manirank"
)

// requireMatrixEqual pins two precedence matrices cell-for-cell — the
// "bitwise identical to a rebuild" guarantee every streaming mutation makes.
func requireMatrixEqual(t *testing.T, got, want *manirank.Precedence, what string) {
	t.Helper()
	if got.N() != want.N() || got.Rankings() != want.Rankings() {
		t.Fatalf("%s: shape (n=%d m=%d) vs rebuild (n=%d m=%d)",
			what, got.N(), got.Rankings(), want.N(), want.Rankings())
	}
	n := got.N()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if got.At(a, b) != want.At(a, b) {
				t.Fatalf("%s: W[%d][%d] = %d, rebuild has %d", what, a, b, got.At(a, b), want.At(a, b))
			}
		}
	}
}

// TestEngineStreamParity is the core streaming property: a long random
// add/remove/update sequence applied incrementally must leave the engine
// holding exactly the matrix a from-scratch NewEngine builds over the same
// profile — and solving through it must match the from-scratch engine
// bitwise for every registered method.
func TestEngineStreamParity(t *testing.T) {
	const n = 16
	tab := demoTable(t, n)
	p := demoProfile(t, tab, 6, 0.4, 11)
	eng, err := manirank.NewEngine(p, manirank.WithTable(tab))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	mirror := p.Clone()
	for step := 0; step < 60; step++ {
		switch op := rng.Intn(3); {
		case op == 0 || len(mirror) == 0: // add
			r := manirank.Ranking(rng.Perm(n))
			if err := eng.AddRanking(r); err != nil {
				t.Fatalf("step %d: AddRanking: %v", step, err)
			}
			mirror = append(mirror, r.Clone())
		case op == 1: // remove
			i := rng.Intn(len(mirror))
			removed, err := eng.RemoveRanking(i)
			if err != nil {
				t.Fatalf("step %d: RemoveRanking(%d): %v", step, i, err)
			}
			if !reflect.DeepEqual(removed, mirror[i]) {
				t.Fatalf("step %d: RemoveRanking returned %v, profile held %v", step, removed, mirror[i])
			}
			mirror = append(mirror[:i], mirror[i+1:]...)
		default: // update
			i := rng.Intn(len(mirror))
			r := manirank.Ranking(rng.Perm(n))
			if err := eng.UpdateRanking(i, r); err != nil {
				t.Fatalf("step %d: UpdateRanking(%d): %v", step, i, err)
			}
			mirror[i] = r.Clone()
		}

		if got := eng.Profile(); !reflect.DeepEqual(got, mirror) {
			t.Fatalf("step %d: engine profile deviates from mirror", step)
		}
		if len(mirror) == 0 {
			continue
		}
		fresh, err := manirank.NewEngine(mirror)
		if err != nil {
			t.Fatalf("step %d: rebuild: %v", step, err)
		}
		requireMatrixEqual(t, eng.PrecedenceSnapshot(), fresh.Precedence(), "after mutation")
	}
	if v := eng.Version(); v != 60 {
		t.Fatalf("Version() = %d after 60 mutations", v)
	}

	// Solve parity at the final state, both fair and unfair methods.
	fresh, err := manirank.NewEngine(mirror, manirank.WithTable(tab))
	if err != nil {
		t.Fatal(err)
	}
	targets := manirank.Targets(tab, 0.2)
	for _, m := range manirank.Methods() {
		var tg []manirank.Target
		if m.IsFair() {
			tg = targets
		}
		a, err := eng.Solve(context.Background(), m, tg, pinnedSolveOptions()...)
		if err != nil {
			t.Fatalf("%s (incremental): %v", m, err)
		}
		b, err := fresh.Solve(context.Background(), m, tg, pinnedSolveOptions()...)
		if err != nil {
			t.Fatalf("%s (rebuild): %v", m, err)
		}
		if !reflect.DeepEqual(a.Ranking, b.Ranking) {
			t.Errorf("%s: incremental engine deviates from rebuilt engine\nincr:    %v\nrebuild: %v",
				m, a.Ranking, b.Ranking)
		}
	}
}

// TestEngineCopyOnWrite pins the ownership contract: NewEngine aliases the
// caller's profile slice and engines handed out by an EngineCache share the
// cache-resident matrix, so the first mutation must fork both instead of
// corrupting them.
func TestEngineCopyOnWrite(t *testing.T) {
	tab := demoTable(t, 12)
	p := demoProfile(t, tab, 8, 0.5, 21)
	orig := p.Clone()

	eng, err := manirank.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RemoveRanking(0); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddRanking(manirank.Ranking(rand.New(rand.NewSource(3)).Perm(12))); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, orig) {
		t.Fatal("engine mutation modified the caller's profile slice")
	}

	// Cache path: two engines over the same profile share one cached matrix;
	// mutating one must leave the other — and the cache — untouched.
	ec := manirank.NewEngineCache(1 << 20)
	e1, err := ec.Engine(context.Background(), orig)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := ec.Engine(context.Background(), orig)
	if err != nil {
		t.Fatal(err)
	}
	before := e2.PrecedenceSnapshot()
	if err := e1.UpdateRanking(0, manirank.Ranking(rand.New(rand.NewSource(4)).Perm(12))); err != nil {
		t.Fatal(err)
	}
	requireMatrixEqual(t, e2.PrecedenceSnapshot(), before, "shared cache matrix after sibling mutation")
	e3, err := ec.Engine(context.Background(), orig)
	if err != nil {
		t.Fatal(err)
	}
	requireMatrixEqual(t, e3.PrecedenceSnapshot(), before, "cache-resident matrix after client mutation")
}

// TestEngineWarmStart pins the warm-start contract: a feasible previous
// consensus fed through WithWarmStart yields a deterministic fair result —
// identical for every solver worker count — that satisfies the same targets,
// and a mis-sized warm ranking silently falls back to the cold path.
func TestEngineWarmStart(t *testing.T) {
	const n = 20
	tab := demoTable(t, n)
	p := demoProfile(t, tab, 10, 0.5, 31)
	targets := manirank.Targets(tab, 0.15)
	eng, err := manirank.NewEngine(p, manirank.WithTable(tab))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := eng.Solve(context.Background(), manirank.MethodFairKemeny, targets, pinnedSolveOptions()...)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate, then re-solve warm-started from the pre-mutation consensus.
	if err := eng.UpdateRanking(0, manirank.Ranking(rand.New(rand.NewSource(5)).Perm(n))); err != nil {
		t.Fatal(err)
	}
	var warmRankings []manirank.Ranking
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := eng.Solve(context.Background(), manirank.MethodFairKemeny, targets,
			manirank.WithSeed(pinnedSeed),
			manirank.WithSolverWorkers(workers),
			manirank.WithWarmStart(cold.Ranking),
		)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !manirank.SatisfiesMANIRank(res.Ranking, tab, 0.15) {
			t.Fatalf("workers=%d: warm-started consensus violates the targets", workers)
		}
		warmRankings = append(warmRankings, res.Ranking)
	}
	for i := 1; i < len(warmRankings); i++ {
		if !reflect.DeepEqual(warmRankings[0], warmRankings[i]) {
			t.Fatalf("warm-started solve differs across worker counts:\nw=1: %v\nw=%d: %v",
				warmRankings[0], []int{1, 2, 4, 8}[i], warmRankings[i])
		}
	}

	// A wrong-length warm ranking must be ignored, not crash: result equals
	// the cold solve exactly.
	coldAgain, err := eng.Solve(context.Background(), manirank.MethodFairKemeny, targets, pinnedSolveOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	short, err := eng.Solve(context.Background(), manirank.MethodFairKemeny, targets,
		append(pinnedSolveOptions(), manirank.WithWarmStart(manirank.NewRanking(5)))...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(short.Ranking, coldAgain.Ranking) {
		t.Fatal("mis-sized warm ranking changed the solve instead of being ignored")
	}
}

// TestEngineInvalidWarmStart pins the fallback for warm rankings of the
// right length that are not permutations — a duplicated candidate, an id
// past n, a negative id: the Kemeny searches must ignore them and return the
// cold solve, for the fair and the unaware methods alike, instead of
// descending forever over the duplicate or reading cells the ranking does
// not own. Each solve runs under a wall-clock deadline.
func TestEngineInvalidWarmStart(t *testing.T) {
	const n = 20
	tab := demoTable(t, n)
	p := demoProfile(t, tab, 10, 0.5, 31)
	targets := manirank.Targets(tab, 0.15)
	eng, err := manirank.NewEngine(p, manirank.WithTable(tab))
	if err != nil {
		t.Fatal(err)
	}
	duplicate := make(manirank.Ranking, n)
	for i := range duplicate {
		duplicate[i] = i / 2
	}
	outOfRange := manirank.NewRanking(n)
	outOfRange[3] = n + 7
	negative := manirank.NewRanking(n)
	negative[n-1] = -1
	solve := func(m manirank.Method, opts ...manirank.SolveOption) manirank.Ranking {
		t.Helper()
		type outcome struct {
			res *manirank.Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := eng.Solve(context.Background(), m, targets, append(pinnedSolveOptions(), opts...)...)
			done <- outcome{res, err}
		}()
		select {
		case o := <-done:
			if o.err != nil {
				t.Fatalf("%v: %v", m, o.err)
			}
			if o.res.Partial {
				t.Fatalf("%v: partial result", m)
			}
			return o.res.Ranking
		case <-time.After(30 * time.Second):
			t.Fatalf("%v: Solve did not return within 30s", m)
			return nil
		}
	}
	for _, m := range []manirank.Method{manirank.MethodKemeny, manirank.MethodKemenyWeighted, manirank.MethodFairKemeny} {
		cold := solve(m)
		for name, warm := range map[string]manirank.Ranking{"duplicate": duplicate, "out-of-range": outOfRange, "negative": negative} {
			if got := solve(m, manirank.WithWarmStart(warm)); !reflect.DeepEqual(got, cold) {
				t.Fatalf("%v: %s warm ranking changed the solve instead of being ignored\ncold %v\ngot  %v", m, name, cold, got)
			}
		}
	}
}

// TestEngineStreamValidation exercises the error surface of the mutation
// API: matrix-only engines, bad indices, and rejected rankings that must
// leave the matrix untouched.
func TestEngineStreamValidation(t *testing.T) {
	tab := demoTable(t, 8)
	p := demoProfile(t, tab, 5, 0.5, 41)
	eng, err := manirank.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}

	wOnly, err := manirank.NewEngineW(eng.Precedence())
	if err != nil {
		t.Fatal(err)
	}
	if err := wOnly.AddRanking(manirank.NewRanking(8)); !errors.Is(err, manirank.ErrProfileRequired) {
		t.Fatalf("matrix-only AddRanking error = %v, want ErrProfileRequired", err)
	}
	if _, err := wOnly.RemoveRanking(0); !errors.Is(err, manirank.ErrProfileRequired) {
		t.Fatalf("matrix-only RemoveRanking error = %v, want ErrProfileRequired", err)
	}
	if err := wOnly.UpdateRanking(0, manirank.NewRanking(8)); !errors.Is(err, manirank.ErrProfileRequired) {
		t.Fatalf("matrix-only UpdateRanking error = %v, want ErrProfileRequired", err)
	}
	if got := wOnly.Profile(); got != nil {
		t.Fatalf("matrix-only Profile() = %v, want nil", got)
	}

	if _, err := eng.RemoveRanking(len(p)); !errors.Is(err, manirank.ErrRankerIndex) {
		t.Fatalf("RemoveRanking(len) error = %v, want ErrRankerIndex", err)
	}
	if err := eng.UpdateRanking(-1, manirank.NewRanking(8)); !errors.Is(err, manirank.ErrRankerIndex) {
		t.Fatalf("UpdateRanking(-1) error = %v, want ErrRankerIndex", err)
	}

	before := eng.PrecedenceSnapshot()
	if err := eng.AddRanking(manirank.NewRanking(9)); err == nil {
		t.Fatal("AddRanking accepted a wrong-length ranking")
	}
	if err := eng.UpdateRanking(0, manirank.Ranking{0, 0, 1, 2, 3, 4, 5, 6}); err == nil {
		t.Fatal("UpdateRanking accepted a non-permutation")
	}
	requireMatrixEqual(t, eng.PrecedenceSnapshot(), before, "matrix after rejected mutations")
	if v := eng.Version(); v != 0 {
		t.Fatalf("rejected mutations bumped Version to %d", v)
	}

	// NewEngineWithMatrix validates the profile/matrix pairing.
	if _, err := manirank.NewEngineWithMatrix(p, nil); err == nil {
		t.Fatal("NewEngineWithMatrix accepted a nil matrix")
	}
	if _, err := manirank.NewEngineWithMatrix(p[:len(p)-1], eng.Precedence()); err == nil {
		t.Fatal("NewEngineWithMatrix accepted a ranking-count mismatch")
	}
	small, err := manirank.NewEngine(demoProfile(t, demoTable(t, 6), 5, 0.5, 41))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := manirank.NewEngineWithMatrix(p, small.Precedence()); err == nil {
		t.Fatal("NewEngineWithMatrix accepted a candidate-count mismatch")
	}
	paired, err := manirank.NewEngineWithMatrix(p, eng.Precedence())
	if err != nil {
		t.Fatalf("NewEngineWithMatrix rejected a valid pairing: %v", err)
	}
	// The paired engine shares eng's matrix until its first mutation.
	preMutation := eng.PrecedenceSnapshot()
	if err := paired.AddRanking(manirank.Ranking(rand.New(rand.NewSource(6)).Perm(8))); err != nil {
		t.Fatal(err)
	}
	requireMatrixEqual(t, eng.PrecedenceSnapshot(), preMutation, "donor matrix after paired-engine mutation")
}
