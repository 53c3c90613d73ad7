package kemeny

// Bitwise-parity pins for the incremental constrained engine: the historical
// full-recompute descent and perturbation kernels are preserved here verbatim
// (move, Feasible-over-the-whole-ranking, undo) and the new auditor-driven
// paths must reproduce their outputs exactly — same rankings, same costs —
// on random instances and for every worker count.

import (
	"context"
	"math/rand"
	"testing"

	"manirank/internal/attribute"
	"manirank/internal/fairness"
	"manirank/internal/ranking"
)

// referenceConstrainedDescent is the pre-incremental constrained descent:
// every trial move mutates the ranking and pays a full fairness.ARP audit.
func referenceConstrainedDescent(w *ranking.Precedence, cons []Constraint, r ranking.Ranking) int {
	type clsMove struct{ pos, delta int }
	n := len(r)
	total := 0
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
					cands = append(cands, clsMove{pos: j, delta: delta})
				}
			}
			delta = 0
			for j := i + 1; j < n; j++ {
				y := r[j]
				delta += w.At(y, c) - w.At(c, y)
				if delta < 0 {
					cands = append(cands, clsMove{pos: j, delta: delta})
				}
			}
			moves = cands[:0]
			for a := 1; a < len(cands); a++ {
				for b := a; b > 0 && cands[b].delta < cands[b-1].delta; b-- {
					cands[b], cands[b-1] = cands[b-1], cands[b]
				}
			}
			for _, mv := range cands {
				r.MoveTo(i, mv.pos)
				if Feasible(r, cons) {
					total += mv.delta
					improved = true
					break
				}
				r.MoveTo(mv.pos, i) // undo
			}
		}
	}
	return total
}

// referencePerturb is the pre-incremental perturbFeasibleDelta: propose,
// apply, full-audit, undo on infeasibility.
func referencePerturb(w *ranking.Precedence, cons []Constraint, r ranking.Ranking, strength int, rng *rand.Rand) int {
	n := len(r)
	if n < 2 {
		return 0
	}
	delta := 0
	for s := 0; s < strength; s++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			continue
		}
		d := w.MoveDelta(r, i, j)
		r.MoveTo(i, j)
		if !Feasible(r, cons) {
			r.MoveTo(j, i) // undo
			continue
		}
		delta += d
	}
	return delta
}

// referenceConstrainedSearch mirrors ConstrainedSearch with the reference
// kernels: seed descent, then sequential index-order restarts with the same
// per-restart RNG derivation and seed-first tie-breaking.
func referenceConstrainedSearch(w *ranking.Precedence, cons []Constraint, start ranking.Ranking, opts Options) ranking.Ranking {
	opts = opts.withDefaults()
	seed := start.Clone()
	seedCost := w.KemenyCost(seed) + referenceConstrainedDescent(w, cons, seed)
	best, bestCost := seed, seedCost
	if opts.Perturbations <= 0 || len(seed) < 2 {
		return best
	}
	cur := make(ranking.Ranking, len(seed))
	for idx := 0; idx < opts.Perturbations; idx++ {
		rng := rand.New(rand.NewSource(restartSeed(opts.Seed, idx, len(cons) > 0)))
		copy(cur, seed)
		cost := seedCost + referencePerturb(w, cons, cur, opts.Strength, rng)
		cost += referenceConstrainedDescent(w, cons, cur)
		if cost < bestCost {
			best, bestCost = cur.Clone(), cost
		}
	}
	return best
}

// feasibleStart builds a random instance with a feasible starting ranking:
// keep drawing rankings until one satisfies the constraint (Delta is loose
// enough that this terminates fast).
func feasibleStart(t *testing.T, rng *rand.Rand) (*ranking.Precedence, []Constraint, ranking.Ranking) {
	t.Helper()
	n, m := 6+rng.Intn(30), 1+rng.Intn(6)
	w := ranking.MustPrecedence(randomProfile(n, m, rng))
	cons := []Constraint{{Attr: binaryAttr(n, rng), Delta: 0.2 + 0.5*rng.Float64()}}
	if rng.Intn(2) == 0 {
		cons = append(cons, Constraint{Attr: ternaryAttr(n, rng), Delta: 0.3 + 0.5*rng.Float64()})
	}
	for tries := 0; ; tries++ {
		r := ranking.Random(n, rng)
		if Feasible(r, cons) {
			return w, cons, r
		}
		if tries > 2000 {
			t.Skip("no feasible start drawn")
		}
	}
}

func ternaryAttr(n int, rng *rand.Rand) *attribute.Attribute {
	of := make([]int, n)
	for i := range of {
		of[i] = rng.Intn(3)
	}
	of[0], of[1], of[n-1] = 0, 1, 2
	a, err := attribute.NewAttribute("t", []string{"A", "B", "C"}, of)
	if err != nil {
		panic(err)
	}
	return a
}

// TestIncrementalDescentMatchesReference pins the auditor-driven descent
// bitwise to the historical full-recompute descent: same final ranking, same
// cost delta. The instances cover one or two small attributes, the
// manirank.Targets shape (two attributes plus their up-to-15-group joint
// attribute, n up to ~120), and the empty constraint set (nil and
// zero-length alike: no auditor, every move feasible).
func TestIncrementalDescentMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	check := func(name string, trial int, w *ranking.Precedence, cons []Constraint, start ranking.Ranking) int {
		t.Helper()
		ref := start.Clone()
		refDelta := referenceConstrainedDescent(w, cons, ref)

		inc := start.Clone()
		sc := newSearchScratch(len(inc))
		sc.syncAuditor(cons, inc)
		incDelta := sc.descentDelta(context.Background(), w, inc)

		if !inc.Equal(ref) {
			t.Fatalf("%s trial %d: descent diverged\nref %v\ninc %v", name, trial, ref, inc)
		}
		if incDelta != refDelta {
			t.Fatalf("%s trial %d: delta %d, reference %d", name, trial, incDelta, refDelta)
		}
		return refDelta
	}
	for trial := 0; trial < 60; trial++ {
		w, cons, start := feasibleStart(t, rng)
		check("small", trial, w, cons, start)
	}
	moved := 0
	for trial := 0; trial < 24; trial++ {
		w, cons, start := intersectionStart(rng)
		if check("intersection", trial, w, cons, start) < 0 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no intersection trial moved: the instances do not exercise the descent")
	}
	for trial := 0; trial < 40; trial++ {
		n, m := 2+rng.Intn(60), 1+rng.Intn(7)
		w := ranking.MustPrecedence(randomProfile(n, m, rng))
		start := ranking.Random(n, rng)
		check("unconstrained", trial, w, nil, start)
		check("unconstrained", trial, w, []Constraint{}, start)
		ref := start.Clone()
		referenceConstrainedDescent(w, nil, ref)
		if got := LocalSearch(w, start.Clone()); !got.Equal(ref) {
			t.Fatalf("unconstrained trial %d: LocalSearch diverged\nref %v\ngot %v", trial, ref, got)
		}
	}
}

// TestIncrementalPerturbMatchesReference pins the auditor-driven
// perturbation kernel bitwise to the historical one: identical draws,
// identical accept/reject decisions, identical rankings.
func TestIncrementalPerturbMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7341))
	for trial := 0; trial < 60; trial++ {
		w, cons, start := feasibleStart(t, rng)
		seed := int64(trial) * 977
		ref := start.Clone()
		refDelta := referencePerturb(w, cons, ref, 6, rand.New(rand.NewSource(seed)))
		inc := start.Clone()
		incDelta := perturbFeasibleDelta(w, newAuditor(cons, inc), inc, 6, rand.New(rand.NewSource(seed)))
		if !inc.Equal(ref) || incDelta != refDelta {
			t.Fatalf("trial %d: perturb diverged (delta %d vs %d)\nref %v\ninc %v",
				trial, incDelta, refDelta, ref, inc)
		}
	}
}

// TestConstrainedSearchMatchesReferenceAllWorkerCounts pins the full engine:
// ConstrainedSearch output is bitwise identical to the pre-incremental
// reference for worker counts 1, 2, 4, and 8, with the scan-sharding
// threshold lowered so the sharded path actually runs on these small
// instances — small attributes first, then the manirank.Targets shape.
func TestConstrainedSearchMatchesReferenceAllWorkerCounts(t *testing.T) {
	defer func(old int) { shardMinScan = old }(shardMinScan)
	shardMinScan = 4
	rng := rand.New(rand.NewSource(90210))
	for trial := 0; trial < 16; trial++ {
		var w *ranking.Precedence
		var cons []Constraint
		var start ranking.Ranking
		if trial < 12 {
			w, cons, start = feasibleStart(t, rng)
		} else {
			w, cons, start = intersectionStart(rng)
		}
		opts := Options{Seed: int64(trial), Perturbations: 6, Strength: 4}
		want := referenceConstrainedSearch(w, cons, start, opts)
		for _, workers := range []int{1, 2, 4, 8} {
			opts.Workers = workers
			got := ConstrainedSearch(w, cons, start, opts)
			if !got.Equal(want) {
				t.Fatalf("trial %d workers %d: search diverged\nref %v\ngot %v",
					trial, workers, want, got)
			}
		}
	}
}

// intersectionStart builds an instance shaped like manirank.Targets: two
// attributes (domains up to 3 and 5) plus their joint attribute (up to 15
// groups), n up to ~120. The profile ranks candidates by group-biased scores
// plus noise, so the consensus the descent heads for is unfair; each Delta
// sits just above the random start's own ARP, so the start is feasible and
// the constraints bind from the first pass.
func intersectionStart(rng *rand.Rand) (*ranking.Precedence, []Constraint, ranking.Ranking) {
	n, m := 20+rng.Intn(101), 3+rng.Intn(8)
	mk := func(name string, domain int) *attribute.Attribute {
		of := make([]int, n)
		values := make([]string, domain)
		for v := range values {
			values[v] = string(rune('A' + v))
			of[v] = v // every value occupied
		}
		for c := domain; c < n; c++ {
			of[c] = rng.Intn(domain)
		}
		rng.Shuffle(n, func(i, j int) { of[i], of[j] = of[j], of[i] })
		a, err := attribute.NewAttribute(name, values, of)
		if err != nil {
			panic(err)
		}
		return a
	}
	a, b := mk("a", 2+rng.Intn(2)), mk("b", 2+rng.Intn(4))
	attrs := []*attribute.Attribute{a, b, attribute.MustTable(n, a, b).Intersection()}
	base := make([]float64, n)
	for _, at := range attrs[:2] {
		shift := make([]float64, at.DomainSize())
		for v := range shift {
			shift[v] = rng.NormFloat64()
		}
		for c := range base {
			base[c] += shift[at.Of[c]]
		}
	}
	p := make(ranking.Profile, m)
	points := make([]int, n)
	for i := range p {
		for c := range points {
			points[c] = int(1000 * (base[c] + 0.7*rng.NormFloat64()))
		}
		p[i] = ranking.SortByPointsDesc(points)
	}
	start := ranking.Random(n, rng)
	cons := make([]Constraint, len(attrs))
	for k, at := range attrs {
		cons[k] = Constraint{Attr: at, Delta: fairness.ARP(start, at) + 0.05*rng.Float64()}
	}
	return ranking.MustPrecedence(p), cons, start
}
