package manirank_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"manirank"
	"manirank/internal/aggregate"
	"manirank/internal/core"
	"manirank/internal/kemeny"
	"manirank/internal/ranking"
	"manirank/internal/service"
)

// discardLogger silences the service's request logs in tests.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// pinnedSeed and pinned worker counts make every solver in the parity
// tests fully deterministic, so "bitwise identical" is a meaningful
// assertion rather than a flaky one.
const pinnedSeed = 7

func pinnedSolveOptions() []manirank.SolveOption {
	return []manirank.SolveOption{
		manirank.WithSeed(pinnedSeed),
		manirank.WithSolverWorkers(1),
	}
}

// legacyCall maps every registered method to the internal entry point its
// registry row wraps, called directly the way callers did before the
// Engine: over a freshly built precedence matrix, or over the profile
// itself for Borda and Fair-Borda (whose O(n·|R|) profile paths check the
// registry's row-sum route) and for the profile-consuming baselines.
func legacyCall(m manirank.Method, p manirank.Profile, tab *manirank.Table, targets []manirank.Target) (manirank.Ranking, error) {
	opts := kemeny.Options{Seed: pinnedSeed, Workers: 1}
	switch m {
	case manirank.MethodBorda:
		return aggregate.Borda(p)
	case manirank.MethodFairBorda:
		return core.FairBorda(p, targets)
	case manirank.MethodKemenyWeighted:
		return aggregate.KemenyWeighted(p, tab, opts)
	case manirank.MethodPickFairestPerm:
		return aggregate.PickFairestPerm(p, tab)
	case manirank.MethodCorrectFairestPerm:
		return core.CorrectFairestPerm(p, targets)
	}
	w, err := ranking.NewPrecedence(p)
	if err != nil {
		return nil, err
	}
	switch m {
	case manirank.MethodCopeland:
		return aggregate.Copeland(w), nil
	case manirank.MethodSchulze:
		return aggregate.Schulze(w), nil
	case manirank.MethodKemeny:
		return aggregate.Kemeny(context.Background(), w, opts).Ranking(), nil
	case manirank.MethodFairCopeland:
		return core.FairCopelandW(w, targets)
	case manirank.MethodFairSchulze:
		return core.FairSchulzeW(w, targets)
	case manirank.MethodFairKemeny:
		r, _, err := core.FairKemenyW(context.Background(), w, targets, opts)
		return r, err
	}
	return nil, fmt.Errorf("no legacy mapping for %v", m)
}

// TestEngineSolveMatchesLegacy is the registry parity property: on several
// instances, every registered method must produce a ranking bitwise
// identical to its internal entry point called directly. This is what lets
// the Engine be the only public solve path.
func TestEngineSolveMatchesLegacy(t *testing.T) {
	instances := []struct {
		n, m  int
		theta float64
		seed  int64
		delta float64
	}{
		{16, 9, 0.4, 1, 0.25},
		{24, 12, 0.5, 2, 0.15},
		{40, 21, 0.7, 3, 0.2},
	}
	for _, inst := range instances {
		tab := demoTable(t, inst.n)
		p := demoProfile(t, tab, inst.m, inst.theta, inst.seed)
		targets := manirank.Targets(tab, inst.delta)
		eng, err := manirank.NewEngine(p, manirank.WithTable(tab))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range manirank.AllMethods() {
			res, err := eng.Solve(context.Background(), m, targets, pinnedSolveOptions()...)
			if err != nil {
				t.Fatalf("n=%d %s: Engine.Solve: %v", inst.n, m, err)
			}
			want, err := legacyCall(m, p, tab, targets)
			if err != nil {
				t.Fatalf("n=%d %s: legacy: %v", inst.n, m, err)
			}
			if !reflect.DeepEqual(res.Ranking, want) {
				t.Errorf("n=%d %s: Engine.Solve deviates from legacy entry point\nengine: %v\nlegacy: %v",
					inst.n, m, res.Ranking, want)
			}
			if res.Partial {
				t.Errorf("n=%d %s: uncancelled solve flagged partial", inst.n, m)
			}
			if res.Report == nil {
				t.Errorf("n=%d %s: engine with table returned nil Report", inst.n, m)
			}
			if res.Method != m {
				t.Errorf("n=%d %s: Result.Method = %s", inst.n, m, res.Method)
			}
		}
	}
}

// TestEngineSolveMatchesHTTP closes the loop across the third surface: for
// every served method, the ranking coming back over manirankd's HTTP API
// must equal both Engine.Solve and the legacy entry point on the same
// instance (fixed seed, solver workers pinned to 1 on both sides).
func TestEngineSolveMatchesHTTP(t *testing.T) {
	const n, m, delta = 24, 12, 0.2
	tab := demoTable(t, n)
	p := demoProfile(t, tab, m, 0.5, 4)
	targets := manirank.Targets(tab, delta)
	eng, err := manirank.NewEngine(p, manirank.WithTable(tab))
	if err != nil {
		t.Fatal(err)
	}

	srv, err := service.New(service.Config{Workers: 1, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// The wire form of the shared instance; the attribute specs mirror
	// demoTable exactly.
	profile := make([][]int, len(p))
	for i, r := range p {
		profile[i] = []int(r)
	}
	attrs := make([]service.AttributeSpec, 0, 2)
	for _, a := range tab.Attrs() {
		attrs = append(attrs, service.AttributeSpec{Name: a.Name, Values: a.Values, Of: a.Of})
	}

	for _, method := range manirank.Methods() {
		req := service.AggregateRequest{
			Method:  method.String(),
			Profile: profile,
			Options: service.SolverOptions{Seed: pinnedSeed},
		}
		if method.IsFair() {
			req.Delta = delta
		}
		req.Attributes = attrs
		body, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(hs.URL+"/v1/aggregate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: POST: %v", method, err)
		}
		var ar service.AggregateResponse
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			t.Fatalf("%s: decode: %v", method, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d", method, resp.StatusCode)
		}

		var engTargets []manirank.Target
		if method.IsFair() {
			engTargets = targets
		}
		res, err := eng.Solve(context.Background(), method, engTargets, pinnedSolveOptions()...)
		if err != nil {
			t.Fatalf("%s: Engine.Solve: %v", method, err)
		}
		if !reflect.DeepEqual(ar.Ranking, res.Ranking) {
			t.Errorf("%s: HTTP ranking deviates from Engine.Solve\nhttp:   %v\nengine: %v",
				method, ar.Ranking, res.Ranking)
		}
		legacy, err := legacyCall(method, p, tab, targets)
		if err != nil {
			t.Fatalf("%s: legacy: %v", method, err)
		}
		if !reflect.DeepEqual(ar.Ranking, legacy) {
			t.Errorf("%s: HTTP ranking deviates from legacy entry point\nhttp:   %v\nlegacy: %v",
				method, ar.Ranking, legacy)
		}
	}
}

// TestMethodSets pins the public method sets against the registry: the
// canonical eight in documented order, the three baselines, and a lossless
// ParseMethod/String round trip for all of them — the property that keeps
// the CLI usage string and the service's accepted values from drifting.
func TestMethodSets(t *testing.T) {
	wantNames := []string{
		"borda", "copeland", "schulze", "kemeny",
		"fair-borda", "fair-copeland", "fair-schulze", "fair-kemeny",
	}
	if got := manirank.MethodNames(); !reflect.DeepEqual(got, wantNames) {
		t.Fatalf("MethodNames() = %v, want %v", got, wantNames)
	}
	if got, want := len(manirank.Baselines()), 3; got != want {
		t.Fatalf("len(Baselines()) = %d, want %d", got, want)
	}
	if got, want := len(manirank.AllMethods()), 11; got != want {
		t.Fatalf("len(AllMethods()) = %d, want %d", got, want)
	}
	for _, m := range manirank.AllMethods() {
		parsed, err := manirank.ParseMethod(m.String())
		if err != nil {
			t.Fatalf("ParseMethod(%q): %v", m.String(), err)
		}
		if parsed != m {
			t.Fatalf("round trip %q: got %v, want %v", m.String(), parsed, m)
		}
	}
	// Case-insensitive parsing, as the HTTP API documents for its method
	// field.
	if m, err := manirank.ParseMethod("Fair-Kemeny"); err != nil || m != manirank.MethodFairKemeny {
		t.Fatalf("ParseMethod(Fair-Kemeny) = %v, %v", m, err)
	}
	if _, err := manirank.ParseMethod("no-such-method"); err == nil {
		t.Fatal("ParseMethod accepted an unknown name")
	}
	if got := manirank.MethodInvalid.String(); got != "invalid" {
		t.Fatalf("MethodInvalid.String() = %q", got)
	}
	if !manirank.MethodCorrectFairestPerm.IsFair() || manirank.MethodKemeny.IsFair() {
		t.Fatal("IsFair misclassifies methods")
	}
	if !manirank.MethodKemenyWeighted.Baseline() || manirank.MethodBorda.Baseline() {
		t.Fatal("Baseline misclassifies methods")
	}
}

// TestEngineValidation exercises the constructor and Solve input checks.
func TestEngineValidation(t *testing.T) {
	tab := demoTable(t, 16)
	p := demoProfile(t, tab, 8, 0.5, 5)
	eng, err := manirank.NewEngine(p, manirank.WithTable(tab))
	if err != nil {
		t.Fatal(err)
	}

	// A matrix-only engine can solve pairwise methods but not the
	// profile-consuming baselines.
	wOnly, err := manirank.NewEngineW(eng.Precedence())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wOnly.Solve(context.Background(), manirank.MethodBorda, nil); err != nil {
		t.Fatalf("matrix-only Borda: %v", err)
	}
	if _, err := wOnly.Solve(context.Background(), manirank.MethodCorrectFairestPerm, manirank.Targets(tab, 0.2)); !errors.Is(err, manirank.ErrProfileRequired) {
		t.Fatalf("matrix-only baseline error = %v, want ErrProfileRequired", err)
	}

	// Table-consuming methods need WithTable.
	noTab, err := manirank.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noTab.Solve(context.Background(), manirank.MethodPickFairestPerm, nil); !errors.Is(err, manirank.ErrTableRequired) {
		t.Fatalf("table-less pick-fairest-perm error = %v, want ErrTableRequired", err)
	}
	if res, err := noTab.Solve(context.Background(), manirank.MethodBorda, nil); err != nil || res.Report != nil {
		t.Fatalf("table-less Borda: err=%v report=%v (want nil report)", err, res.Report)
	}

	// Unregistered methods and mismatched tables fail loudly.
	if _, err := eng.Solve(context.Background(), manirank.MethodInvalid, nil); err == nil {
		t.Fatal("Solve accepted MethodInvalid")
	}
	small := demoTable(t, 8)
	if _, err := manirank.NewEngine(p, manirank.WithTable(small)); err == nil {
		t.Fatal("NewEngine accepted a table over the wrong candidate count")
	}
	if _, err := manirank.NewEngineW(nil); err == nil {
		t.Fatal("NewEngineW accepted a nil matrix")
	}
}

// TestEngineConstructorContract pins what the four constructors share: a
// table over the wrong candidate count is an error with one wording, the
// right table solves with an audit, and WithPrecedenceWorkers(0) yields the
// same matrix, bit for bit, as leaving the option out.
func TestEngineConstructorContract(t *testing.T) {
	ctx := context.Background()
	tab := demoTable(t, 16)
	p := demoProfile(t, tab, 8, 0.5, 5)
	w, err := manirank.NewPrecedence(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	constructors := []struct {
		name  string
		build func(...manirank.EngineOption) (*manirank.Engine, error)
	}{
		{"NewEngine", func(opts ...manirank.EngineOption) (*manirank.Engine, error) {
			return manirank.NewEngine(p, opts...)
		}},
		{"NewEngineW", func(opts ...manirank.EngineOption) (*manirank.Engine, error) {
			return manirank.NewEngineW(w, opts...)
		}},
		{"NewEngineWithMatrix", func(opts ...manirank.EngineOption) (*manirank.Engine, error) {
			return manirank.NewEngineWithMatrix(p, w, opts...)
		}},
		{"EngineCache.Engine", func(opts ...manirank.EngineOption) (*manirank.Engine, error) {
			return manirank.NewEngineCache(1<<20).Engine(ctx, p, opts...)
		}},
	}
	for _, c := range constructors {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.build(manirank.WithTable(demoTable(t, 8)))
			if err == nil || !strings.Contains(err.Error(), "table covers 8 candidates, engine ranks 16") {
				t.Fatalf("8-candidate table over 16 candidates: err = %v", err)
			}
			eng, err := c.build(manirank.WithTable(tab))
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Solve(ctx, manirank.MethodBorda, nil)
			if err != nil || res.Report == nil {
				t.Fatalf("Solve with the right table: err=%v report=%v", err, res)
			}
			for _, opts := range [][]manirank.EngineOption{nil, {manirank.WithPrecedenceWorkers(0)}} {
				eng, err := c.build(opts...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.Precedence().MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("options %d: matrix differs from NewPrecedence's", len(opts))
				}
			}
		})
	}
}

// TestEngineSharedMatrixReuse pins the tentpole's economics: the matrix
// built by one Engine is the same object served to every Solve, and an
// Engine wrapped around it (the serving layer's cache path) produces
// identical rankings.
func TestEngineSharedMatrixReuse(t *testing.T) {
	tab := demoTable(t, 24)
	p := demoProfile(t, tab, 10, 0.6, 6)
	targets := manirank.Targets(tab, 0.2)
	eng, err := manirank.NewEngine(p, manirank.WithTable(tab))
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := manirank.NewEngineW(eng.Precedence(), manirank.WithTable(tab))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range manirank.Methods() {
		a, err := eng.Solve(context.Background(), m, targets, pinnedSolveOptions()...)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		b, err := wrapped.Solve(context.Background(), m, targets, pinnedSolveOptions()...)
		if err != nil {
			t.Fatalf("%s (wrapped): %v", m, err)
		}
		if !reflect.DeepEqual(a.Ranking, b.Ranking) {
			t.Errorf("%s: wrapped engine deviates", m)
		}
		if a.PDLoss != b.PDLoss {
			t.Errorf("%s: PD loss deviates: %v vs %v", m, a.PDLoss, b.PDLoss)
		}
	}
}
