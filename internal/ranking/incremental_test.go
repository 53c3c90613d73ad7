package ranking

import (
	"math/rand"
	"testing"
)

// requireSameMatrix pins got bitwise against want: same n, same (weighted)
// ranking count, identical cells.
func requireSameMatrix(t *testing.T, got, want *Precedence) {
	t.Helper()
	if got.N() != want.N() || got.Rankings() != want.Rankings() {
		t.Fatalf("shape mismatch: got (n=%d, m=%d), want (n=%d, m=%d)",
			got.N(), got.Rankings(), want.N(), want.Rankings())
	}
	for a := 0; a < want.N(); a++ {
		for b := 0; b < want.N(); b++ {
			if got.At(a, b) != want.At(a, b) {
				t.Fatalf("W[%d][%d] = %d, want %d", a, b, got.At(a, b), want.At(a, b))
			}
		}
	}
}

// TestAddRankingParity: patching rankings into a matrix one by one lands
// bitwise on the from-scratch construction at every step.
func TestAddRankingParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 3, 9, 25} {
		p := Profile{Random(n, rng)}
		w := MustPrecedence(p)
		for step := 0; step < 12; step++ {
			r := Random(n, rng)
			if err := w.AddRanking(r); err != nil {
				t.Fatalf("n=%d step %d: AddRanking: %v", n, step, err)
			}
			p = append(p, r)
			requireSameMatrix(t, w, MustPrecedence(p))
		}
	}
}

// TestRemoveRankingParity: removing rankings (in shuffled order) tracks the
// from-scratch matrix of the remaining profile at every step, down to empty.
func TestRemoveRankingParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 8
	p := make(Profile, 10)
	for i := range p {
		p[i] = Random(n, rng)
	}
	w := MustPrecedence(p)
	for len(p) > 0 {
		i := rng.Intn(len(p))
		if err := w.RemoveRanking(p[i]); err != nil {
			t.Fatalf("RemoveRanking: %v", err)
		}
		p = append(p[:i], p[i+1:]...)
		if len(p) > 0 {
			requireSameMatrix(t, w, MustPrecedence(p))
		}
	}
	// Down to the empty profile every cell must have returned to zero
	// (NewPrecedence rejects empty profiles, so pin it directly).
	if got := w.Rankings(); got != 0 {
		t.Fatalf("emptied matrix reports %d rankings", got)
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if w.At(a, b) != 0 {
				t.Fatalf("emptied matrix cell W[%d][%d] = %d, want 0", a, b, w.At(a, b))
			}
		}
	}
	if err := w.RemoveRanking(Random(n, rng)); err == nil {
		t.Fatal("RemoveRanking on an empty matrix did not error")
	}
}

// TestUpdateRankingParity: remove-then-add (the update composition) over a
// long random op sequence stays bitwise identical to rebuilding.
func TestUpdateRankingParity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 6
	p := make(Profile, 5)
	for i := range p {
		p[i] = Random(n, rng)
	}
	w := MustPrecedence(p)
	for step := 0; step < 40; step++ {
		i := rng.Intn(len(p))
		next := Random(n, rng)
		if err := w.RemoveRanking(p[i]); err != nil {
			t.Fatalf("step %d: remove: %v", step, err)
		}
		if err := w.AddRanking(next); err != nil {
			t.Fatalf("step %d: add: %v", step, err)
		}
		p[i] = next
		requireSameMatrix(t, w, MustPrecedence(p))
	}
}

// TestPrecedenceMutationValidation: malformed patches are rejected without
// touching the matrix.
func TestPrecedenceMutationValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := Profile{Random(5, rng), Random(5, rng)}
	w := MustPrecedence(p)
	want := MustPrecedence(p)
	if err := w.AddRanking(Ranking{0, 1, 2}); err == nil {
		t.Fatal("AddRanking accepted a wrong-length ranking")
	}
	if err := w.AddRanking(Ranking{0, 1, 2, 3, 3}); err == nil {
		t.Fatal("AddRanking accepted a non-permutation")
	}
	if err := w.RemoveRanking(Ranking{0, 0, 1, 2, 3}); err == nil {
		t.Fatal("RemoveRanking accepted a non-permutation")
	}
	requireSameMatrix(t, w, want)
}

// TestPrecedenceClone: clones are independent — mutating one never leaks
// into the other.
func TestPrecedenceClone(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	p := Profile{Random(7, rng), Random(7, rng)}
	w := MustPrecedence(p)
	c := w.Clone()
	requireSameMatrix(t, c, w)
	if err := c.AddRanking(Random(7, rng)); err != nil {
		t.Fatalf("AddRanking on clone: %v", err)
	}
	requireSameMatrix(t, w, MustPrecedence(p))
	if c.Rankings() != 3 || w.Rankings() != 2 {
		t.Fatalf("clone m=%d, original m=%d; want 3 and 2", c.Rankings(), w.Rankings())
	}
}

// TestAddRankingWidensPastUint16: the AddRanking that takes m from 65535 to
// 65536 widens the uint16 cells to int32, landing on the fresh build over
// the 65536 rankings; removing that ranking restores the 65535-ranking
// cells and keeps the int32 width.
func TestAddRankingWidensPastUint16(t *testing.T) {
	const n, m = 4, 65535
	rng := rand.New(rand.NewSource(29))
	p := make(Profile, m+1)
	for i := range p {
		p[i] = Random(n, rng)
	}
	// Every ranking puts 0 above 1, so W[1][0] is the narrow maximum 65535
	// before the add and 65536 after it.
	for _, r := range p {
		if pos := r.Positions(); pos[1] < pos[0] {
			r[pos[0]], r[pos[1]] = 1, 0
		}
	}
	w := MustPrecedence(p[:m])
	before := MustPrecedence(p[:m])
	if got := w.CellBytes(); got != 2*n*n {
		t.Fatalf("m=%d: CellBytes = %d, want uint16 cells", m, got)
	}
	if err := w.AddRanking(p[m]); err != nil {
		t.Fatal(err)
	}
	fresh := MustPrecedence(p)
	requireSameMatrix(t, w, fresh)
	requireRowSums(t, w)
	if w.At(1, 0) != m+1 {
		t.Fatalf("W[1][0] = %d, want %d", w.At(1, 0), m+1)
	}
	if got := w.CellBytes(); got != 4*n*n || fresh.CellBytes() != got {
		t.Fatalf("after AddRanking: CellBytes = %d, fresh build %d, want int32 cells", got, fresh.CellBytes())
	}
	r := Random(n, rng)
	if w.KemenyCost(r) != fresh.KemenyCost(r) || w.LowerBound() != fresh.LowerBound() {
		t.Fatal("widened matrix disagrees with the fresh build on KemenyCost or LowerBound")
	}
	if err := w.RemoveRanking(p[m]); err != nil {
		t.Fatal(err)
	}
	requireSameMatrix(t, w, before)
	requireRowSums(t, w)
	if got := w.CellBytes(); got != 4*n*n {
		t.Fatalf("after RemoveRanking: CellBytes = %d, want the int32 width kept", got)
	}
}
