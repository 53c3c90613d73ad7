// Package ranking provides the core ranking substrate used throughout the
// MANI-Rank reproduction: strict total-order rankings over candidates
// identified by dense integer ids, Kendall tau distance, precedence matrices
// summarising a profile of base rankings, Kemeny cost, and the paper's
// Pairwise Disagreement (PD) loss.
//
// A Ranking is a permutation of the candidate ids 0..n-1 where index 0 holds
// the top (best) candidate. All algorithms in this module operate on this
// representation; helper methods convert between rank order and position
// lookup tables.
package ranking

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Ranking is a strict total order over candidates 0..n-1.
// Ranking[0] is the top (most preferred) candidate and Ranking[n-1] the
// bottom. It corresponds to the paper's pi = [x1 < x2 < ... < xn].
type Ranking []int

// ErrNotPermutation reports that a slice does not hold each candidate id
// 0..n-1 exactly once.
var ErrNotPermutation = errors.New("ranking: not a permutation of 0..n-1")

// New returns the identity ranking [0, 1, ..., n-1].
func New(n int) Ranking {
	r := make(Ranking, n)
	for i := range r {
		r[i] = i
	}
	return r
}

// Random returns a uniformly random ranking over n candidates drawn from rng.
func Random(n int, rng *rand.Rand) Ranking {
	r := New(n)
	rng.Shuffle(n, func(i, j int) { r[i], r[j] = r[j], r[i] })
	return r
}

// Reverse returns a new ranking with the order of r reversed.
func (r Ranking) Reverse() Ranking {
	out := make(Ranking, len(r))
	for i, c := range r {
		out[len(r)-1-i] = c
	}
	return out
}

// Clone returns a copy of r.
func (r Ranking) Clone() Ranking {
	out := make(Ranking, len(r))
	copy(out, r)
	return out
}

// N returns the number of candidates ranked.
func (r Ranking) N() int { return len(r) }

// Validate returns ErrNotPermutation unless r contains every candidate id
// 0..len(r)-1 exactly once.
func (r Ranking) Validate() error {
	seen := make([]bool, len(r))
	for _, c := range r {
		if c < 0 || c >= len(r) || seen[c] {
			return fmt.Errorf("%w (len %d, offending id %d)", ErrNotPermutation, len(r), c)
		}
		seen[c] = true
	}
	return nil
}

// IsValid reports whether r is a permutation of 0..n-1.
func (r Ranking) IsValid() bool { return r.Validate() == nil }

// Positions returns the inverse permutation: Positions()[c] is the 0-based
// rank position of candidate c (0 = top).
func (r Ranking) Positions() []int {
	pos := make([]int, len(r))
	for i, c := range r {
		pos[c] = i
	}
	return pos
}

// Prefers reports whether candidate a is ranked above (better than) b in r.
// It is O(n); callers in hot loops should use Positions once instead.
func (r Ranking) Prefers(a, b int) bool {
	pos := r.Positions()
	return pos[a] < pos[b]
}

// Swap exchanges the candidates at rank positions i and j in place.
func (r Ranking) Swap(i, j int) { r[i], r[j] = r[j], r[i] }

// MoveTo removes the candidate at position from and reinserts it at position
// to, shifting the candidates in between. It mutates r in place.
func (r Ranking) MoveTo(from, to int) {
	if from == to {
		return
	}
	c := r[from]
	if from < to {
		copy(r[from:to], r[from+1:to+1])
	} else {
		copy(r[to+1:from+1], r[to:from])
	}
	r[to] = c
}

// Equal reports whether r and s rank the same candidates in the same order.
func (r Ranking) Equal(s Ranking) bool {
	if len(r) != len(s) {
		return false
	}
	for i := range r {
		if r[i] != s[i] {
			return false
		}
	}
	return true
}

// String renders the ranking as "3 > 1 > 0 > 2".
func (r Ranking) String() string {
	var b strings.Builder
	for i, c := range r {
		if i > 0 {
			b.WriteString(" > ")
		}
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
}

// TotalPairs returns omega(X) = n(n-1)/2, the number of candidate pairs in a
// ranking over n candidates (paper Eq. 2).
func TotalPairs(n int) int { return n * (n - 1) / 2 }

// SortByScoreDesc returns a ranking of n candidates by descending score,
// breaking ties by ascending candidate id so results are deterministic.
func SortByScoreDesc(scores []float64) Ranking {
	r := New(len(scores))
	sort.SliceStable(r, func(i, j int) bool {
		if scores[r[i]] != scores[r[j]] {
			return scores[r[i]] > scores[r[j]]
		}
		return r[i] < r[j]
	})
	return r
}

// SortByPointsDesc is SortByScoreDesc for integer scores (e.g. Borda points,
// Copeland wins), again with deterministic id tie-breaking. Integers make
// (points descending, id ascending) a total order, so an unstable sort
// yields the one permutation a stable sort would.
func SortByPointsDesc(points []int) Ranking {
	r := New(len(points))
	slices.SortFunc(r, func(a, b int) int {
		if c := cmp.Compare(points[b], points[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return r
}

// Profile is a set of base rankings over the same candidate universe
// (the paper's R). All rankings must have the same length.
type Profile []Ranking

// Validate checks that every ranking in p is a valid permutation and that all
// rankings cover the same number of candidates.
func (p Profile) Validate() error {
	if len(p) == 0 {
		return errors.New("ranking: empty profile")
	}
	n := len(p[0])
	for i, r := range p {
		if len(r) != n {
			return fmt.Errorf("ranking: profile ranking %d has %d candidates, want %d", i, len(r), n)
		}
		if err := r.Validate(); err != nil {
			return fmt.Errorf("ranking: profile ranking %d: %w", i, err)
		}
	}
	return nil
}

// N returns the number of candidates in the profile (0 for an empty profile).
func (p Profile) N() int {
	if len(p) == 0 {
		return 0
	}
	return len(p[0])
}

// Clone deep-copies the profile.
func (p Profile) Clone() Profile {
	out := make(Profile, len(p))
	for i, r := range p {
		out[i] = r.Clone()
	}
	return out
}
