// The streaming fuzz target lives in the external test package so it can
// cross-check internal/fairness (which imports ranking) without a cycle.
package ranking_test

import (
	"math/rand"
	"testing"

	"manirank/internal/fairness"
	"manirank/internal/ranking"
)

// FuzzIncrementalPrecedence drives a random add/remove/update stream through
// Precedence.AddRanking/RemoveRanking and pins the patched matrix cell-for-
// cell, and row sum for row sum, against a from-scratch MustPrecedence over
// a mirrored profile after EVERY step — the bitwise-parity invariant the
// streaming Engine and the manirankd session endpoint both rest on. Each
// step also re-seats a long-lived fairness.Tracker on a fresh consensus
// over the mutated profile (Reset + one incremental ApplyMove) and pins its
// counters against a freshly built tracker, so the fairness state the
// warm-started solvers audit with stays consistent across profile
// mutations. Payload layout:
// data[0] -> n, data[1] -> initial m, data[2] -> RNG seed byte, remaining
// bytes are the op stream (b%3 selects add/remove/update, b/3 the target
// index).
func FuzzIncrementalPrecedence(f *testing.F) {
	f.Add([]byte{4, 3, 7, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{2, 1, 0, 1, 1, 1})
	f.Add([]byte{8, 6, 91, 2, 5, 8, 11, 14, 17, 20, 23})
	f.Add([]byte{6, 2, 255, 9, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%7
		m := 1 + int(data[1])%6
		seed := int64(data[2])
		for _, b := range data[3:] {
			seed = seed*131 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed))

		mirror := make(ranking.Profile, m)
		for i := range mirror {
			mirror[i] = ranking.Random(n, rng)
		}
		w := ranking.MustPrecedence(mirror)

		// Binary alternating groups, the demo attribute shape; the tracker
		// outlives every profile mutation like a session's audit state does.
		of := make([]int, n)
		for c := range of {
			of[c] = c % 2
		}
		live := fairness.NewGroupTracker(ranking.Random(n, rng), of, 2)

		check := func(step int) {
			want := ranking.MustPrecedence(mirror)
			if w.Rankings() != want.Rankings() {
				t.Fatalf("step %d: patched matrix counts %d rankings, rebuild counts %d",
					step, w.Rankings(), want.Rankings())
			}
			for a := 0; a < n; a++ {
				sum := 0
				for b := 0; b < n; b++ {
					if w.At(a, b) != want.At(a, b) {
						t.Fatalf("step %d: patched W[%d][%d] = %d, rebuild = %d",
							step, a, b, w.At(a, b), want.At(a, b))
					}
					sum += w.At(a, b)
				}
				if w.RowSum(a) != sum || want.RowSum(a) != sum {
					t.Fatalf("step %d: row %d sums to %d, patched RowSum %d, rebuild RowSum %d",
						step, a, sum, w.RowSum(a), want.RowSum(a))
				}
			}
			r := ranking.Random(n, rng)
			if got, wantCost := w.KemenyCost(r), want.KemenyCost(r); got != wantCost {
				t.Fatalf("step %d: patched KemenyCost %d, rebuild %d", step, got, wantCost)
			}

			// A new consensus over the mutated profile: re-seat the
			// long-lived tracker, nudge it with one incremental move, and it
			// must be indistinguishable from a tracker built from scratch.
			consensus := ranking.Random(n, rng)
			live.Reset(consensus)
			from, to := rng.Intn(n), rng.Intn(n)
			live.ApplyMove(from, to)
			consensus.MoveTo(from, to)
			fresh := fairness.NewGroupTracker(consensus, of, 2)
			for v := 0; v < 2; v++ {
				if live.Win(v) != fresh.Win(v) || live.OmegaM(v) != fresh.OmegaM(v) {
					t.Fatalf("step %d: tracker group %d diverged: wins %d/%d, omegaM %d/%d",
						step, v, live.Win(v), fresh.Win(v), live.OmegaM(v), fresh.OmegaM(v))
				}
				lp, fp := live.Positions(v), fresh.Positions(v)
				if len(lp) != len(fp) {
					t.Fatalf("step %d: tracker group %d position count %d, fresh %d", step, v, len(lp), len(fp))
				}
				for i := range lp {
					if lp[i] != fp[i] {
						t.Fatalf("step %d: tracker group %d position[%d] = %d, fresh %d", step, v, i, lp[i], fp[i])
					}
				}
			}
			if live.Spread() != fresh.Spread() {
				t.Fatalf("step %d: tracker spread %g, fresh %g", step, live.Spread(), fresh.Spread())
			}
		}

		for step, b := range data[3:] {
			op := int(b) % 3
			if len(mirror) == 1 && op != 0 {
				op = 0 // never drain the profile: RemoveRanking needs m >= 1 after
			}
			switch op {
			case 0: // add
				r := ranking.Random(n, rng)
				if err := w.AddRanking(r); err != nil {
					t.Fatalf("step %d: AddRanking: %v", step, err)
				}
				mirror = append(mirror, r)
			case 1: // remove
				i := (int(b) / 3) % len(mirror)
				if err := w.RemoveRanking(mirror[i]); err != nil {
					t.Fatalf("step %d: RemoveRanking: %v", step, err)
				}
				mirror = append(mirror[:i:i], mirror[i+1:]...)
			case 2: // update = remove old + add new at the same slot
				i := (int(b) / 3) % len(mirror)
				r := ranking.Random(n, rng)
				if err := w.RemoveRanking(mirror[i]); err != nil {
					t.Fatalf("step %d: update/RemoveRanking: %v", step, err)
				}
				if err := w.AddRanking(r); err != nil {
					t.Fatalf("step %d: update/AddRanking: %v", step, err)
				}
				mirror = mirror.Clone()
				mirror[i] = r
			}
			check(step)
		}
	})
}
