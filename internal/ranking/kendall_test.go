package ranking

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKendallTauKnownValues(t *testing.T) {
	id := New(4)
	cases := []struct {
		b    Ranking
		want int
	}{
		{New(4), 0},
		{Ranking{1, 0, 2, 3}, 1},
		{Ranking{3, 2, 1, 0}, 6}, // full reversal = n(n-1)/2
		{Ranking{1, 2, 3, 0}, 3},
	}
	for _, tc := range cases {
		if got := KendallTau(id, tc.b); got != tc.want {
			t.Errorf("KendallTau(id, %v) = %d, want %d", tc.b, got, tc.want)
		}
	}
}

func TestKendallTauMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60)
		a, b := Random(n, rng), Random(n, rng)
		return KendallTau(a, b) == KendallTauNaive(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKendallTauSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50)
		a, b := Random(n, rng), Random(n, rng)
		return KendallTau(a, b) == KendallTau(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKendallTauIdentityOfIndiscernibles(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50)
		a := Random(n, rng)
		return KendallTau(a, a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKendallTauTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30)
		a, b, c := Random(n, rng), Random(n, rng), Random(n, rng)
		return KendallTau(a, c) <= KendallTau(a, b)+KendallTau(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKendallTauBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50)
		a, b := Random(n, rng), Random(n, rng)
		d := KendallTau(a, b)
		return d >= 0 && d <= TotalPairs(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKendallTauReversalIsMax(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		a := Random(n, rng)
		if got := KendallTau(a, a.Reverse()); got != TotalPairs(n) {
			t.Fatalf("n=%d: KendallTau(a, reverse(a)) = %d, want %d", n, got, TotalPairs(n))
		}
	}
}

func TestKendallTauPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	KendallTau(New(3), New(4))
}

func BenchmarkKendallTauMerge1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := Random(1000, rng), Random(1000, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KendallTau(x, y)
	}
}

func BenchmarkKendallTauNaive1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := Random(1000, rng), Random(1000, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KendallTauNaive(x, y)
	}
}

// KendallTauNaive is the O(n^2) reference implementation the merge-count
// KendallTau is cross-checked against.
func KendallTauNaive(a, b Ranking) int {
	if len(a) != len(b) {
		panic("ranking: KendallTauNaive on rankings of different lengths")
	}
	posA := a.Positions()
	posB := b.Positions()
	d := 0
	for x := 0; x < len(a); x++ {
		for y := x + 1; y < len(a); y++ {
			if (posA[x] < posA[y]) != (posB[x] < posB[y]) {
				d++
			}
		}
	}
	return d
}
