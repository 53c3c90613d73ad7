// Package aggregate implements the fairness-unaware consensus ranking
// methods the paper builds on or compares against (Sections III and IV):
// Borda, Copeland, Schulze, exact/heuristic Kemeny, and the fairness-aware
// baselines Pick-A-Perm / Pick-Fairest-Perm / Kemeny-Weighted.
//
// All methods are deterministic: score ties break by ascending candidate
// id. The pairwise methods consume a precomputed ranking.Precedence, and
// Borda has a matrix twin (ranking.Precedence.Borda, integer-identical
// point totals from the matrix's row sums), so every method composes with
// the serving layer's shared precedence-matrix tier; Kemeny takes a context
// for cooperative cancellation with a best-so-far result in deadline-bounded
// serving.
package aggregate

import (
	"context"
	"errors"

	"manirank/internal/attribute"
	"manirank/internal/fairness"
	"manirank/internal/kemeny"
	"manirank/internal/ranking"
)

// Borda returns the Borda consensus: candidates ordered by descending total
// points, where a candidate earns one point per candidate ranked below it in
// each base ranking (paper Section III-B). O(n * |R|).
func Borda(p ranking.Profile) (ranking.Ranking, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	points := make([]int, n)
	for _, r := range p {
		for i, c := range r {
			points[c] += n - 1 - i
		}
	}
	return ranking.SortByPointsDesc(points), nil
}

// Copeland returns the Copeland consensus: candidates ordered by descending
// number of pairwise contests won, where a tie counts as a win for both
// candidates (paper Section III-B).
func Copeland(w *ranking.Precedence) ranking.Ranking {
	n := w.N()
	wins := make([]int, n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			// Candidate a wins the contest against b when at least as many
			// rankings place a above b as b above a. W[a][b] counts rankings
			// with b above a, so a's support is m - W[a][b] = W[b][a].
			if w.At(b, a) >= w.At(a, b) {
				wins[a]++
			}
		}
	}
	return ranking.SortByPointsDesc(wins)
}

// Schulze returns the Schulze consensus: strongest-path pairwise comparison
// computed with the Floyd-Warshall widest-path recurrence, candidates ordered
// by their number of strongest-path wins (paper Section III-B). O(n^3) worst
// case, with a row-wise early exit (see schulzeStrongestPaths) that skips
// every relaxation min(p[a][k], p[k][b]) <= p[a][b] can already rule out.
func Schulze(w *ranking.Precedence) ranking.Ranking {
	return schulzeRankFromPaths(schulzeStrongestPaths(w))
}

// schulzeInitPaths builds the seed path matrix: p[a][b] is the number of
// rankings preferring a over b when that is a strict majority, else 0.
func schulzeInitPaths(w *ranking.Precedence) [][]int {
	n := w.N()
	p := make([][]int, n)
	for a := 0; a < n; a++ {
		p[a] = make([]int, n)
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			support := w.At(b, a) // rankings with a above b
			against := w.At(a, b)
			if support > against {
				p[a][b] = support
			}
		}
	}
	return p
}

// schulzeStrongestPaths runs the widest-path relaxation with two early
// exits derived from min(p[a][k], p[k][b]) <= p[a][b] never relaxing:
//
//   - Row-wise contested columns: for pivot k only columns b with p[k][b] > 0
//     can strengthen any path through k (otherwise the min is 0), so the
//     inner loop walks a per-pivot index of those columns — roughly half the
//     columns on majority-style matrices, and when the index is empty the
//     whole pivot is skipped.
//   - Source skip: a row a with p[a][k] == 0 cannot route through k at all.
//
// The relaxations that do run execute in the same (k, a, b) order with the
// same values as the dense recurrence, so the resulting matrix — and every
// golden table built on it — is bitwise identical to schulzeDensePaths.
func schulzeStrongestPaths(w *ranking.Precedence) [][]int {
	n := w.N()
	p := schulzeInitPaths(w)
	cols := make([]int32, 0, n)
	for k := 0; k < n; k++ {
		pk := p[k]
		cols = cols[:0]
		for b := 0; b < n; b++ {
			if b != k && pk[b] > 0 {
				cols = append(cols, int32(b))
			}
		}
		if len(cols) == 0 {
			continue
		}
		for a := 0; a < n; a++ {
			if a == k {
				continue
			}
			pa := p[a]
			ak := pa[k]
			if ak == 0 {
				continue
			}
			for _, b32 := range cols {
				b := int(b32)
				if b == a {
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

// schulzeRankFromPaths orders candidates by their strongest-path win counts.
func schulzeRankFromPaths(p [][]int) ranking.Ranking {
	n := len(p)
	wins := make([]int, n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b && p[a][b] > p[b][a] {
				wins[a]++
			}
		}
	}
	return ranking.SortByPointsDesc(wins)
}

// Kemeny returns a consensus ranking minimising total Kendall tau distance to
// the profile summarised by w: exactly (branch-and-bound) for small n,
// heuristically (Borda-seeded iterated local search) for large n.
// Cancellation is cooperative (the serving layer's per-request deadline):
// when ctx is done both engines stop early and return the best ranking found
// so far — never nil. The ranking comes as a kemeny.Incumbent, with its
// exact Kemeny cost and the descent's bounds synced to it, so a caller that
// goes on to repair and descend again (Fair-Kemeny) pays no second pair
// sweep.
func Kemeny(ctx context.Context, w *ranking.Precedence, opts kemeny.Options) *kemeny.Incumbent {
	opts = opts.WithDefaults()
	if w.N() <= opts.ExactThreshold {
		// A warm-start ranking (opts.Warm) seeds the exact search's
		// incumbent too: the bound tightens immediately, but the optimum —
		// unlike the heuristic's answer — is seed-independent.
		seed := kemeny.LocalSearch(w, kemeny.WarmOrBordaSeed(w, opts))
		res := kemeny.BranchAndBound(ctx, w, nil, seed, opts.MaxNodes)
		if res.Ranking != nil {
			return kemeny.Sync(w, res.Ranking)
		}
	}
	return kemeny.HeuristicSearch(ctx, w, opts)
}

// PickFairestPerm returns the base ranking with the smallest maximum
// ARP/IRP violation over table t — the paper's Pick-Fairest-Perm baseline
// (Section IV-B). Ties break toward the earlier ranking.
func PickFairestPerm(p ranking.Profile, t *attribute.Table) (ranking.Ranking, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.N() != t.N() {
		return nil, errors.New("aggregate: profile and table candidate counts differ")
	}
	best, bestViol := -1, 0.0
	for i, r := range p {
		v := fairness.Audit(r, t).MaxViolation()
		if best < 0 || v < bestViol {
			best, bestViol = i, v
		}
	}
	return p[best].Clone(), nil
}

// FairnessOrder returns the indices of p ordered from least fair to most
// fair (descending max ARP/IRP violation over t).
func FairnessOrder(p ranking.Profile, t *attribute.Table) []int {
	type scored struct {
		idx  int
		viol float64
	}
	s := make([]scored, len(p))
	for i, r := range p {
		s[i] = scored{i, fairness.Audit(r, t).MaxViolation()}
	}
	// Insertion sort by descending violation, stable on index.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].viol > s[j-1].viol; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	out := make([]int, len(s))
	for i, e := range s {
		out[i] = e.idx
	}
	return out
}

// KemenyWeighted implements the paper's Kemeny-Weighted baseline: base
// rankings are ordered from least to most fair and the i-th (1-based) in
// that order contributes weight i to the precedence matrix — the fairest
// ranking weighs |R|, the least fair weighs 1 — before Kemeny aggregation.
func KemenyWeighted(p ranking.Profile, t *attribute.Table, opts kemeny.Options) (ranking.Ranking, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	order := FairnessOrder(p, t)
	weights := make([]int, len(p))
	for rank, idx := range order {
		weights[idx] = rank + 1 // least fair -> 1, fairest -> |R|
	}
	w, err := ranking.NewWeightedPrecedence(p, weights)
	if err != nil {
		return nil, err
	}
	return Kemeny(context.Background(), w, opts).Ranking(), nil
}
