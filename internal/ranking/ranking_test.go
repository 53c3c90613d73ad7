package ranking

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewIsIdentity(t *testing.T) {
	r := New(5)
	for i, c := range r {
		if c != i {
			t.Fatalf("New(5)[%d] = %d, want %d", i, c, i)
		}
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("identity should validate: %v", err)
	}
}

func TestValidateRejectsBadInputs(t *testing.T) {
	cases := []struct {
		name string
		r    Ranking
	}{
		{"duplicate", Ranking{0, 1, 1}},
		{"out of range high", Ranking{0, 1, 3}},
		{"negative", Ranking{0, -1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.r.Validate(); err == nil {
				t.Fatalf("Validate(%v) = nil, want error", tc.r)
			}
		})
	}
	if err := (Ranking{}).Validate(); err != nil {
		t.Fatalf("empty ranking should be valid: %v", err)
	}
}

func TestPositionsInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(30)
		r := Random(n, rng)
		pos := r.Positions()
		for i, c := range r {
			if pos[c] != i {
				t.Fatalf("Positions()[%d] = %d, want %d", c, pos[c], i)
			}
		}
	}
}

func TestPrefers(t *testing.T) {
	r := Ranking{3, 1, 0, 2}
	if !r.Prefers(3, 2) {
		t.Error("3 should be preferred over 2")
	}
	if r.Prefers(2, 3) {
		t.Error("2 should not be preferred over 3")
	}
}

func TestReverse(t *testing.T) {
	r := Ranking{3, 1, 0, 2}
	rev := r.Reverse()
	want := Ranking{2, 0, 1, 3}
	if !rev.Equal(want) {
		t.Fatalf("Reverse() = %v, want %v", rev, want)
	}
	if !r.Reverse().Reverse().Equal(r) {
		t.Fatal("double reverse should be identity")
	}
}

func TestMoveTo(t *testing.T) {
	cases := []struct {
		from, to int
		want     Ranking
	}{
		{0, 3, Ranking{1, 2, 3, 0, 4}},
		{3, 0, Ranking{3, 0, 1, 2, 4}},
		{2, 2, Ranking{0, 1, 2, 3, 4}},
		{4, 0, Ranking{4, 0, 1, 2, 3}},
	}
	for _, tc := range cases {
		r := New(5)
		r.MoveTo(tc.from, tc.to)
		if !r.Equal(tc.want) {
			t.Errorf("MoveTo(%d, %d) = %v, want %v", tc.from, tc.to, r, tc.want)
		}
		if err := r.Validate(); err != nil {
			t.Errorf("MoveTo(%d, %d) broke permutation: %v", tc.from, tc.to, err)
		}
	}
}

func TestMoveToPreservesPermutationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		n := 2 + local.Intn(40)
		r := Random(n, rng)
		r.MoveTo(local.Intn(n), local.Intn(n))
		return r.IsValid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	if got := (Ranking{2, 0, 1}).String(); got != "2 > 0 > 1" {
		t.Fatalf("String() = %q", got)
	}
}

func TestTotalPairs(t *testing.T) {
	for n, want := range map[int]int{0: 0, 1: 0, 2: 1, 5: 10, 90: 4005} {
		if got := TotalPairs(n); got != want {
			t.Errorf("TotalPairs(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSortByScoreDesc(t *testing.T) {
	r := SortByScoreDesc([]float64{1.5, 3.0, 0.5, 3.0})
	// Ties (ids 1 and 3 at score 3.0) break toward the lower id.
	want := Ranking{1, 3, 0, 2}
	if !r.Equal(want) {
		t.Fatalf("SortByScoreDesc = %v, want %v", r, want)
	}
}

func TestSortByPointsDesc(t *testing.T) {
	r := SortByPointsDesc([]int{2, 9, 9, 4})
	want := Ranking{1, 2, 3, 0}
	if !r.Equal(want) {
		t.Fatalf("SortByPointsDesc = %v, want %v", r, want)
	}
}

// TestSortByPointsDescMatchesStableSort pins the unstable sort to the
// stable one it replaced, on tie-heavy points: few distinct values (ties in
// almost every comparison), negatives, and the extremes of int. The order
// (points descending, id ascending) is total, so the two must agree.
func TestSortByPointsDescMatchesStableSort(t *testing.T) {
	reference := func(points []int) Ranking {
		r := New(len(points))
		sort.SliceStable(r, func(i, j int) bool {
			if points[r[i]] != points[r[j]] {
				return points[r[i]] > points[r[j]]
			}
			return r[i] < r[j]
		})
		return r
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300)
		values := []int{math.MinInt, -1, 0, 1, math.MaxInt}
		for k := rng.Intn(6); k > 0; k-- {
			values = append(values, rng.Intn(7)-3)
		}
		points := make([]int, n)
		for c := range points {
			points[c] = values[rng.Intn(len(values))]
		}
		return SortByPointsDesc(points).Equal(reference(points))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProfileValidate(t *testing.T) {
	good := Profile{New(3), Ranking{2, 1, 0}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	if err := (Profile{}).Validate(); err == nil {
		t.Fatal("empty profile accepted")
	}
	if err := (Profile{New(3), New(4)}).Validate(); err == nil {
		t.Fatal("ragged profile accepted")
	}
	if err := (Profile{Ranking{0, 0, 1}}).Validate(); err == nil {
		t.Fatal("invalid member ranking accepted")
	}
}

func TestProfileClone(t *testing.T) {
	p := Profile{New(3)}
	q := p.Clone()
	q[0][0], q[0][1] = q[0][1], q[0][0]
	if !p[0].Equal(New(3)) {
		t.Fatal("Clone shares storage with original")
	}
}
