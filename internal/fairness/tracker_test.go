package fairness

import (
	"math"
	"math/rand"
	"testing"

	"manirank/internal/attribute"
	"manirank/internal/ranking"
)

// checkAgainstScratch asserts every tracker accessor agrees bitwise with a
// from-scratch audit of r.
func checkAgainstScratch(t *testing.T, trk *Tracker, r ranking.Ranking, a *attribute.Attribute, step string) {
	t.Helper()
	want := GroupFPRs(r, a)
	for v := range want {
		if got := trk.FPR(v); got != want[v] {
			t.Fatalf("%s: FPR(%d) = %v, scratch %v", step, v, got, want[v])
		}
	}
	if got, want := trk.Spread(), ARP(r, a); got != want {
		t.Fatalf("%s: Spread = %v, ARP %v", step, got, want)
	}
	pos := r.Positions()
	seen := 0
	for v := 0; v < trk.Groups(); v++ {
		ps := trk.Positions(v)
		seen += len(ps)
		last := -1
		for _, p := range ps {
			if p <= last {
				t.Fatalf("%s: Positions(%d) not strictly sorted: %v", step, v, ps)
			}
			last = p
			if a.Of[r[p]] != v {
				t.Fatalf("%s: Positions(%d) claims pos %d but group there is %d", step, v, p, a.Of[r[p]])
			}
		}
	}
	if seen != len(r) {
		t.Fatalf("%s: position lists cover %d of %d positions", step, seen, len(r))
	}
	_ = pos
}

func TestTrackerRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(40)
		domain := 1 + rng.Intn(5)
		a := randomAttr(n, domain, rng)
		r := ranking.Random(n, rng)
		trk := NewTracker(r, a)
		checkAgainstScratch(t, trk, r, a, "init")
		for step := 0; step < 60; step++ {
			if rng.Intn(2) == 0 {
				from, to := rng.Intn(n), rng.Intn(n)
				if got, want := trk.SpreadAfterMove(from, to), predictMoveScratch(r, a, from, to); got != want {
					t.Fatalf("SpreadAfterMove(%d,%d) = %v, scratch %v", from, to, got, want)
				}
				checkWindowSpread(t, trk, r, a, from, to, 0.5*rng.Float64())
				trk.ApplyMove(from, to)
				r.MoveTo(from, to)
			} else {
				i, j := rng.Intn(n), rng.Intn(n)
				trk.ApplySwap(i, j)
				r.Swap(i, j)
			}
			checkAgainstScratch(t, trk, r, a, "step")
		}
	}
}

// checkWindowSpread asserts that SpreadAfterWindow, fed a histogram of the
// move's window counted with CountWindow, predicts r.MoveTo(from, to)
// exactly like auditing the moved ranking from scratch; that with a finite
// bound its early exit decides "> bound" the same way; and that a blocked
// verdict holds — every larger window in the same direction is over bound
// too.
func checkWindowSpread(t *testing.T, trk *Tracker, r ranking.Ranking, a *attribute.Attribute, from, to int, bound float64) {
	t.Helper()
	if from == to {
		return
	}
	lo, hi, up := moveWindow(from, to)
	mid := make([]int, trk.Groups())
	trk.CountWindow(mid, lo, hi)
	want := predictMoveScratch(r, a, from, to)
	if got, _ := trk.SpreadAfterWindow(trk.GroupAt(from), hi-lo+1, up, mid, math.Inf(1)); got != want {
		t.Fatalf("SpreadAfterWindow(%d->%d) = %v, scratch %v", from, to, got, want)
	}
	got, blocked := trk.SpreadAfterWindow(trk.GroupAt(from), hi-lo+1, up, mid, bound)
	if (got > bound) != (want > bound) {
		t.Fatalf("SpreadAfterWindow(%d->%d, bound %v) = %v, scratch %v", from, to, bound, got, want)
	}
	if !blocked {
		return
	}
	if !(want > bound) {
		t.Fatalf("move %d->%d blocked at spread %v <= bound %v", from, to, want, bound)
	}
	step := 1
	if up {
		step = -1
	}
	for further := to + step; further >= 0 && further < len(r); further += step {
		if s := predictMoveScratch(r, a, from, further); s <= bound {
			t.Fatalf("move %d->%d blocked, but %d->%d has spread %v <= bound %v", from, to, from, further, s, bound)
		}
	}
}

// predictMoveScratch computes the post-move ARP the slow way: clone, move,
// audit.
func predictMoveScratch(r ranking.Ranking, a *attribute.Attribute, from, to int) float64 {
	c := r.Clone()
	c.MoveTo(from, to)
	return ARP(c, a)
}

func TestTrackerSpreadAfterTransfer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(30)
		a := randomAttr(n, 2+rng.Intn(3), rng)
		r := ranking.Random(n, rng)
		trk := NewTracker(r, a)
		i := rng.Intn(n - 1)
		j := i + 1 + rng.Intn(n-i-1)
		va, vb := a.Of[r[i]], a.Of[r[j]]
		got := trk.SpreadAfterTransfer(va, vb, j-i)
		c := r.Clone()
		c.Swap(i, j)
		if want := ARP(c, a); got != want {
			t.Fatalf("SpreadAfterTransfer(%d,%d,%d) = %v, swap-audit %v", va, vb, j-i, got, want)
		}
	}
}

// scanMinDistPairs is the historical O(n·g) bottom-up reference for
// EachMinDistPair.
func scanMinDistPairs(r ranking.Ranking, of []int, g int) [][2]int {
	minD := make([]int, g*g)
	pairPos := make([][2]int, g*g)
	for i := range minD {
		minD[i] = -1
	}
	nearestBelow := make([]int, g)
	for v := range nearestBelow {
		nearestBelow[v] = -1
	}
	for p := len(r) - 1; p >= 0; p-- {
		a := of[r[p]]
		for b := 0; b < g; b++ {
			if b == a || nearestBelow[b] < 0 {
				continue
			}
			if d := nearestBelow[b] - p; minD[a*g+b] < 0 || d < minD[a*g+b] {
				minD[a*g+b] = d
				pairPos[a*g+b] = [2]int{p, nearestBelow[b]}
			}
		}
		nearestBelow[a] = p
	}
	var out [][2]int
	for idx, d := range minD {
		if d >= 0 {
			out = append(out, pairPos[idx])
		}
	}
	return out
}

func TestTrackerEachMinDistPair(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(30)
		domain := 1 + rng.Intn(5)
		a := randomAttr(n, domain, rng)
		r := ranking.Random(n, rng)
		trk := NewTracker(r, a)
		check := func(step string) {
			t.Helper()
			want := scanMinDistPairs(r, a.Of, domain)
			var got [][2]int
			trk.EachMinDistPair(func(i, j int) { got = append(got, [2]int{i, j}) })
			if len(got) != len(want) {
				t.Fatalf("%s: %d pairs, scratch %d (got %v want %v)", step, len(got), len(want), got, want)
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("%s: pair %d = %v, scratch %v", step, k, got[k], want[k])
				}
			}
		}
		check("init")
		for step := 0; step < 40; step++ {
			if rng.Intn(4) == 0 {
				from, to := rng.Intn(n), rng.Intn(n)
				trk.ApplyMove(from, to)
				r.MoveTo(from, to)
			} else {
				i, j := rng.Intn(n), rng.Intn(n)
				trk.ApplySwap(i, j)
				r.Swap(i, j)
			}
			check("step")
		}
	}
}

func TestTrackerReset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 25
	a := randomAttr(n, 3, rng)
	r := ranking.Random(n, rng)
	trk := NewTracker(r, a)
	for k := 0; k < 10; k++ {
		trk.ApplySwap(rng.Intn(n), rng.Intn(n))
	}
	r2 := ranking.Random(n, rng)
	trk.Reset(r2)
	checkAgainstScratch(t, trk, r2, a, "reset")
}

// FuzzTrackerParity drives a random MoveTo/Swap sequence from fuzzed bytes
// and asserts the incremental ARP equals fairness.ARP recomputed from
// scratch after every step — the bitwise-parity guarantee the fair solvers
// rely on. Every move op is also predicted both ways first: SpreadAfterMove
// (binary-search counts) and SpreadAfterWindow over a CountWindow histogram
// (the descent's sweep) must each equal the scratch audit of the moved
// ranking.
func FuzzTrackerParity(f *testing.F) {
	f.Add(uint8(8), uint8(2), []byte{0x01, 0x23, 0x45, 0x67})
	f.Add(uint8(16), uint8(3), []byte{0xff, 0x00, 0xaa, 0x55, 0x10, 0x42})
	f.Add(uint8(5), uint8(5), []byte{0x00})
	f.Add(uint8(30), uint8(4), []byte{0x13, 0x37, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, nRaw, domRaw uint8, ops []byte) {
		n := 2 + int(nRaw)%63
		domain := 1 + int(domRaw)%6
		rng := rand.New(rand.NewSource(int64(nRaw)*131 + int64(domRaw)))
		a := randomAttr(n, domain, rng)
		r := ranking.Random(n, rng)
		trk := NewTracker(r, a)
		for k := 0; k+2 < len(ops); k += 3 {
			x, y := int(ops[k+1])%n, int(ops[k+2])%n
			if ops[k]%2 == 0 {
				if got, want := trk.SpreadAfterMove(x, y), predictMoveScratch(r, a, x, y); got != want {
					t.Fatalf("SpreadAfterMove(%d,%d) = %v, scratch %v", x, y, got, want)
				}
				// The op byte's high bits pick the bound for the early-exit
				// and blocked checks: 0 .. ~0.6, around typical spreads.
				checkWindowSpread(t, trk, r, a, x, y, float64(ops[k]>>1)/200)
				trk.ApplyMove(x, y)
				r.MoveTo(x, y)
			} else {
				trk.ApplySwap(x, y)
				r.Swap(x, y)
			}
			if got, want := trk.Spread(), ARP(r, a); got != want {
				t.Fatalf("after op %d: Spread = %v, ARP %v", k/3, got, want)
			}
		}
		want := scanMinDistPairs(r, a.Of, domain)
		var got [][2]int
		trk.EachMinDistPair(func(i, j int) { got = append(got, [2]int{i, j}) })
		if len(got) != len(want) {
			t.Fatalf("EachMinDistPair: %d pairs, scratch %d", len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("EachMinDistPair pair %d = %v, scratch %v", k, got[k], want[k])
			}
		}
	})
}
