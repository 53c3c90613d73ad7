package ranking

import (
	"bytes"
	"math/rand"
	"testing"
)

// fuzzInstance decodes a fuzz payload into a reproducible profile, working
// ranking, and move coordinates. Layout: data[0] -> n, data[1] -> m,
// data[2]/data[3] -> move positions, remaining bytes fold into the RNG seed.
func fuzzInstance(data []byte) (p Profile, r Ranking, from, to int, ok bool) {
	if len(data) < 4 {
		return nil, nil, 0, 0, false
	}
	n := 2 + int(data[0])%40
	m := 1 + int(data[1])%8
	seed := int64(1)
	for _, b := range data[4:] {
		seed = seed*131 + int64(b)
	}
	rng := rand.New(rand.NewSource(seed))
	p = make(Profile, m)
	for i := range p {
		p[i] = Random(n, rng)
	}
	r = Random(n, rng)
	return p, r, int(data[2]) % n, int(data[3]) % n, true
}

// FuzzSwapDeltas cross-checks the O(1)/O(k) incremental cost deltas the
// solvers rely on — AdjacentSwapDelta and MoveDelta — against a full
// KemenyCost recompute on fuzzed profiles, rankings, and move coordinates.
func FuzzSwapDeltas(f *testing.F) {
	f.Add([]byte{5, 3, 2, 4, 1})
	f.Add([]byte{38, 7, 0, 39, 200, 17, 4})
	f.Add([]byte{2, 1, 1, 0})
	f.Add([]byte{20, 4, 10, 10, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, r, from, to, ok := fuzzInstance(data)
		if !ok {
			return
		}
		w := MustPrecedence(p)
		base := w.KemenyCost(r)

		moved := r.Clone()
		delta := w.MoveDelta(moved, from, to)
		moved.MoveTo(from, to)
		if got := w.KemenyCost(moved); base+delta != got {
			t.Fatalf("MoveDelta(%d->%d) = %d, but full recompute moved cost %d - base %d = %d",
				from, to, delta, got, base, got-base)
		}
		// The inverse move must return both the ranking and the cost.
		back := w.MoveDelta(moved, to, from)
		moved.MoveTo(to, from)
		if !moved.Equal(r) || delta+back != 0 {
			t.Fatalf("inverse move did not restore: delta %d, back %d, equal %v", delta, back, moved.Equal(r))
		}

		if n := len(r); n >= 2 {
			i := from % (n - 1)
			swapped := r.Clone()
			d := w.AdjacentSwapDelta(swapped, i)
			swapped.Swap(i, i+1)
			if got := w.KemenyCost(swapped); base+d != got {
				t.Fatalf("AdjacentSwapDelta(%d) = %d, but full recompute gives %d", i, d, got-base)
			}
			// Adjacent swap is MoveTo(i, i+1): the two fast paths must agree.
			if md := w.MoveDelta(r, i, i+1); md != d {
				t.Fatalf("AdjacentSwapDelta(%d) = %d disagrees with MoveDelta = %d", i, d, md)
			}
		}
	})
}

// FuzzUnmarshalPrecedence feeds arbitrary bytes to the precedence wire
// decoder — the boundary every peer and disk entry crosses. It must never
// panic, and everything it accepts must be a matrix some profile could
// produce (zero diagonal, non-negative cells, W[a][b] + W[b][a] = m) whose
// canonical re-encoding is exactly the input. The committed corpus in
// testdata/fuzz/FuzzUnmarshalPrecedence holds valid entries and one of each
// corruption the decoder rejects.
func FuzzUnmarshalPrecedence(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := UnmarshalPrecedence(data)
		if err != nil {
			return
		}
		n, m := w.N(), w.Rankings()
		for a := 0; a < n; a++ {
			if w.At(a, a) != 0 {
				t.Fatalf("accepted W[%d][%d] = %d", a, a, w.At(a, a))
			}
			for b := a + 1; b < n; b++ {
				if x, y := w.At(a, b), w.At(b, a); x < 0 || y < 0 || x+y != m {
					t.Fatalf("accepted pair (%d,%d): %d + %d, m = %d", a, b, x, y, m)
				}
				if w.Margin(a, b) != w.At(a, b)-w.At(b, a) {
					t.Fatalf("Margin(%d,%d) = %d, cells %d - %d", a, b, w.Margin(a, b), w.At(a, b), w.At(b, a))
				}
			}
		}
		again, _ := w.MarshalBinary()
		if !bytes.Equal(again, data) {
			t.Fatal("accepted entry does not re-encode to its own bytes")
		}
	})
}
