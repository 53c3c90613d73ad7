package ranking

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
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
// produce (zero diagonal, non-negative cells, W[a][b] + W[b][a] = m), with
// row sums equal to its cell sums, whose canonical re-encoding is exactly
// the input. The committed corpus in testdata/fuzz/FuzzUnmarshalPrecedence
// holds valid entries and one of each corruption the decoder rejects.
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
		requireRowSums(t, w)
		again, _ := w.MarshalBinary()
		if !bytes.Equal(again, data) {
			t.Fatal("accepted entry does not re-encode to its own bytes")
		}
	})
}

// massByDefinition derives every candidate's inversion mass in r term by
// term through Margin: up[c] sums the negative Margin(c, b) over the b above
// c, dn[c] the negative −Margin(c, b) over the b below c.
func massByDefinition(w *Precedence, r Ranking) (up, dn []int) {
	up, dn = make([]int, len(r)), make([]int, len(r))
	for i, c := range r {
		for j, b := range r {
			if j < i {
				up[c] += min(0, w.Margin(c, b))
			} else if j > i {
				dn[c] += min(0, -w.Margin(c, b))
			}
		}
	}
	return up, dn
}

// FuzzInversionMass checks the descent's bound kernels on fuzzed weighted
// profiles, rankings and move sequences: InversionMass fills the inversion
// mass its definition gives and returns KemenyCost, and after every move
// the O(span) MoveInversionMass update equals a fresh recount and returns
// MoveDelta's cost change. Layout:
// data[0] -> n, data[1] -> m, data[2] -> which rankings weigh MaxInt32/m
// (bit k for ranking k; the rest weigh 1..9), data[3] -> RNG seed, then
// (from, to) byte pairs. With every bit set the total weight is within m of
// MaxInt32, where 2·cell no longer fits an int32.
func FuzzInversionMass(f *testing.F) {
	f.Add([]byte{5, 3, 0, 1, 0, 4, 4, 0})
	f.Add([]byte{20, 5, 0xff, 2, 19, 0, 0, 19, 7, 7, 3, 12})
	f.Add([]byte{2, 0, 0xff, 3, 0, 1, 1, 0})
	f.Add([]byte{31, 7, 0x55, 4, 10, 30, 29, 1, 15, 15, 0, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 2 + int(data[0])%32
		m := 1 + int(data[1])%6
		rng := rand.New(rand.NewSource(int64(data[3])))
		p := make(Profile, m)
		weights := make([]int, m)
		for k := range p {
			p[k] = Random(n, rng)
			weights[k] = 1 + rng.Intn(9)
			if data[2]&(1<<k) != 0 {
				weights[k] = math.MaxInt32 / m
			}
		}
		w, err := NewWeightedPrecedence(p, weights)
		if err != nil {
			t.Fatal(err)
		}
		r := Random(n, rng)
		up, dn := make([]int, n), make([]int, n)
		if got, want := w.InversionMass(r, up, dn), w.KemenyCost(r); got != want {
			t.Fatalf("InversionMass cost %d, KemenyCost %d", got, want)
		}
		if wantUp, wantDn := massByDefinition(w, r); !slices.Equal(up, wantUp) || !slices.Equal(dn, wantDn) {
			t.Fatalf("InversionMass filled up %v dn %v, definition gives up %v dn %v", up, dn, wantUp, wantDn)
		}
		freshUp, freshDn := make([]int, n), make([]int, n)
		for k := 4; k+1 < len(data) && k < 4+2*32; k += 2 {
			from, to := int(data[k])%n, int(data[k+1])%n
			if got, want := w.MoveInversionMass(r, up, dn, from, to), w.MoveDelta(r, from, to); got != want {
				t.Fatalf("MoveInversionMass(%d, %d) returned delta %d, MoveDelta %d", from, to, got, want)
			}
			r.MoveTo(from, to)
			w.InversionMass(r, freshUp, freshDn)
			if !slices.Equal(up, freshUp) || !slices.Equal(dn, freshDn) {
				t.Fatalf("after MoveTo(%d, %d): maintained up %v dn %v, recount up %v dn %v",
					from, to, up, dn, freshUp, freshDn)
			}
		}
	})
}
