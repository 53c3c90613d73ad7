package ranking

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// equalMatrices compares two precedence matrices cell by cell.
func equalMatrices(t *testing.T, a, b *Precedence) bool {
	t.Helper()
	if a.N() != b.N() || a.Rankings() != b.Rankings() {
		return false
	}
	for x := 0; x < a.N(); x++ {
		for y := 0; y < a.N(); y++ {
			if a.At(x, y) != b.At(x, y) {
				return false
			}
		}
	}
	return true
}

func TestParallelPrecedenceMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		n, m := 2+rng.Intn(40), 1+rng.Intn(60)
		p := randomProfile(n, m, rng)
		serial, err := NewPrecedenceWorkers(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 4, 7, m + 3} {
			par, err := NewPrecedenceWorkers(p, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !equalMatrices(t, serial, par) {
				t.Fatalf("trial %d: workers=%d matrix differs from serial (n=%d m=%d)", trial, workers, n, m)
			}
		}
	}
}

func TestParallelWeightedPrecedenceMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 25; trial++ {
		n, m := 2+rng.Intn(30), 1+rng.Intn(50)
		p := randomProfile(n, m, rng)
		weights := make([]int, m)
		for i := range weights {
			weights[i] = rng.Intn(5) // zero weights exercise the skip path
		}
		serial, err := NewWeightedPrecedenceWorkers(p, weights, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, m + 1} {
			par, err := NewWeightedPrecedenceWorkers(p, weights, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !equalMatrices(t, serial, par) {
				t.Fatalf("trial %d: workers=%d weighted matrix differs (n=%d m=%d)", trial, workers, n, m)
			}
		}
	}
}

// TestPrecedenceMatchesPositionCompare pins the upper-triangle kernel against
// the definitional O(n^2 |R|) position-compare construction.
func TestPrecedenceMatchesPositionCompare(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 2+rng.Intn(12), 1+rng.Intn(8)
		p := randomProfile(n, m, rng)
		w := MustPrecedence(p)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				want := 0
				for _, r := range p {
					pos := r.Positions()
					if a != b && pos[b] < pos[a] {
						want++
					}
				}
				if w.At(a, b) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAdjacentSwapDeltaAgreesWithFullCost(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 2+rng.Intn(15), 1+rng.Intn(8)
		w := MustPrecedence(randomProfile(n, m, rng))
		r := Random(n, rng)
		cost := w.KemenyCost(r)
		for step := 0; step < 30; step++ {
			i := rng.Intn(n - 1)
			cost += w.AdjacentSwapDelta(r, i)
			r.Swap(i, i+1)
			if cost != w.KemenyCost(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMoveDeltaAgreesWithFullCost(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 2+rng.Intn(15), 1+rng.Intn(8)
		w := MustPrecedence(randomProfile(n, m, rng))
		r := Random(n, rng)
		cost := w.KemenyCost(r)
		for step := 0; step < 30; step++ {
			from, to := rng.Intn(n), rng.Intn(n)
			if from != to {
				cost += w.MoveDelta(r, from, to)
			}
			r.MoveTo(from, to)
			if cost != w.KemenyCost(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// requireRowSums fails t unless every row sum w keeps equals the sum of the
// row's cells.
func requireRowSums(t *testing.T, w *Precedence) {
	t.Helper()
	for a := 0; a < w.N(); a++ {
		want := 0
		for b := 0; b < w.N(); b++ {
			want += w.At(a, b)
		}
		if got := w.RowSum(a); got != want {
			t.Fatalf("RowSum(%d) = %d, cells sum to %d", a, got, want)
		}
	}
}

// TestRowSum pins the row sums the matrix keeps to the cells they sum: for
// plain and weighted (zero weights included) builds at construction widths
// 1, 2 and 4, and for a Clone, whose sums follow its own patches and not
// the original's.
func TestRowSum(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n, m := 2+rng.Intn(30), 1+rng.Intn(12)
		p := randomProfile(n, m, rng)
		weights := make([]int, m)
		for i := range weights {
			weights[i] = rng.Intn(5)
		}
		for _, workers := range []int{1, 2, 4} {
			w, err := NewPrecedenceWorkers(p, workers)
			if err != nil {
				t.Fatal(err)
			}
			requireRowSums(t, w)
			ww, err := NewWeightedPrecedenceWorkers(p, weights, workers)
			if err != nil {
				t.Fatal(err)
			}
			requireRowSums(t, ww)
		}
	}

	n := 9
	p := randomProfile(n, 5, rng)
	w := MustPrecedence(p)
	sums := func(w *Precedence) []int {
		s := make([]int, n)
		for a := range s {
			s[a] = w.RowSum(a)
		}
		return s
	}
	orig := sums(w)
	c := w.Clone()
	if err := c.AddRanking(Random(n, rng)); err != nil {
		t.Fatal(err)
	}
	requireRowSums(t, c)
	if got := sums(w); !slices.Equal(got, orig) {
		t.Fatalf("patching a clone moved the original's row sums: %v, was %v", got, orig)
	}
	cloned := sums(c)
	if err := w.RemoveRanking(p[0]); err != nil {
		t.Fatal(err)
	}
	requireRowSums(t, w)
	if got := sums(c); !slices.Equal(got, cloned) {
		t.Fatalf("patching the original moved the clone's row sums: %v, was %v", got, cloned)
	}
}

func TestWeightedPrecedenceRejectsInt32Overflow(t *testing.T) {
	p := Profile{Ranking{0, 1}, Ranking{1, 0}}
	if _, err := NewWeightedPrecedence(p, []int{1 << 31, 1}); err == nil {
		t.Error("per-ranking weight above MaxInt32 accepted")
	}
	if _, err := NewWeightedPrecedence(p, []int{1 << 30, 1<<30 - 1}); err != nil {
		t.Errorf("weights summing to MaxInt32 rejected: %v", err)
	}
	if _, err := NewWeightedPrecedence(p, []int{1<<31 - 1, 2}); err == nil {
		t.Error("total weight above MaxInt32 accepted")
	}
}
