package aggregate

import (
	"math/rand"
	"testing"

	"manirank/internal/mallows"
	"manirank/internal/ranking"
)

// schulzeProfile draws m rankings over n candidates from a Plackett-Luce
// model around a random modal — the same family the scalability artifacts
// (fig7) use, so the benchmark measures the workload Schulze dominates there.
func schulzeProfile(n, m int, theta float64, seed int64) ranking.Profile {
	rng := rand.New(rand.NewSource(seed))
	modal := ranking.Random(n, rng)
	return mallows.MustNewPlackettLuce(modal, theta).SampleProfile(m, rng)
}

// schulzeDensePaths is the unpruned widest-path recurrence, kept as the
// reference the early-exit version is tested and benchmarked against.
func schulzeDensePaths(w *ranking.Precedence) [][]int {
	n := w.N()
	p := schulzeInitPaths(w)
	for k := 0; k < n; k++ {
		pk := p[k]
		for a := 0; a < n; a++ {
			if a == k {
				continue
			}
			pa := p[a]
			ak := pa[k]
			if ak == 0 {
				continue
			}
			for b := 0; b < n; b++ {
				if b == a || b == k {
					continue
				}
				s := ak
				if pk[b] < s {
					s = pk[b]
				}
				if s > pa[b] {
					pa[b] = s
				}
			}
		}
	}
	return p
}

// TestSchulzeEarlyExitMatchesDense pins the early-exit widest-path against
// the unpruned recurrence cell-for-cell, across consensus strengths from
// near-uniform (many zero-majority pairs) to strong (dense majority matrix).
func TestSchulzeEarlyExitMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		m := 1 + rng.Intn(12)
		p := make(ranking.Profile, m)
		for i := range p {
			p[i] = ranking.Random(n, rng)
		}
		w := ranking.MustPrecedence(p)
		got, want := schulzeStrongestPaths(w), schulzeDensePaths(w)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if got[a][b] != want[a][b] {
					t.Fatalf("n=%d m=%d: paths[%d][%d] = %d, dense says %d", n, m, a, b, got[a][b], want[a][b])
				}
			}
		}
		if !schulzeRankFromPaths(got).Equal(schulzeRankFromPaths(want)) {
			t.Fatalf("n=%d m=%d: rankings deviate", n, m)
		}
	}
	// Structured profiles too: weak and strong Mallows-style consensus.
	for _, theta := range []float64{0.05, 0.6} {
		w := ranking.MustPrecedence(schulzeProfile(120, 30, theta, 42))
		got, want := schulzeStrongestPaths(w), schulzeDensePaths(w)
		for a := range got {
			for b := range got[a] {
				if got[a][b] != want[a][b] {
					t.Fatalf("theta=%g: paths[%d][%d] = %d, dense says %d", theta, a, b, got[a][b], want[a][b])
				}
			}
		}
	}
}

// benchSchulzePaths times one strongest-paths computation per iteration on
// the fig7 worst-case scale (n=500).
func benchSchulzePaths(b *testing.B, f func(*ranking.Precedence) [][]int) {
	b.Helper()
	w := ranking.MustPrecedence(schulzeProfile(500, 50, 0.2, 7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(w)
	}
}

// BenchmarkSchulze500 vs BenchmarkSchulze500Dense is the ROADMAP item's
// receipt: the contested-column early exit against the unpruned recurrence
// on the n=500 workload that dominates fig7.
func BenchmarkSchulze500(b *testing.B)      { benchSchulzePaths(b, schulzeStrongestPaths) }
func BenchmarkSchulze500Dense(b *testing.B) { benchSchulzePaths(b, schulzeDensePaths) }
