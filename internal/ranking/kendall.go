package ranking

// KendallTau returns the Kendall tau distance between two rankings: the
// number of candidate pairs ordered differently by a and b (paper Def. 8).
// It runs in O(n log n) using a merge-sort inversion count.
//
// The two rankings must cover the same candidates; the function panics if the
// lengths differ (a programming error, since profiles are validated at the
// boundary).
func KendallTau(a, b Ranking) int {
	if len(a) != len(b) {
		panic("ranking: KendallTau on rankings of different lengths")
	}
	// Relabel b's candidates by their position in a. The Kendall tau distance
	// is then the number of inversions in the relabelled sequence.
	posA := a.Positions()
	seq := make([]int, len(b))
	for i, c := range b {
		seq[i] = posA[c]
	}
	buf := make([]int, len(seq))
	return countInversions(seq, buf)
}

// countInversions counts pairs i<j with s[i] > s[j], destroying s. buf must
// have len(s).
func countInversions(s, buf []int) int {
	n := len(s)
	if n < 2 {
		return 0
	}
	// Bottom-up merge sort: avoids recursion overhead on large profiles.
	inv := 0
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n-width; lo += 2 * width {
			mid := lo + width
			hi := mid + width
			if hi > n {
				hi = n
			}
			inv += mergeCount(s, buf, lo, mid, hi)
		}
	}
	return inv
}

func mergeCount(s, buf []int, lo, mid, hi int) int {
	copy(buf[lo:hi], s[lo:hi])
	i, j, k := lo, mid, lo
	inv := 0
	for i < mid && j < hi {
		if buf[i] <= buf[j] {
			s[k] = buf[i]
			i++
		} else {
			s[k] = buf[j]
			j++
			inv += mid - i
		}
		k++
	}
	for i < mid {
		s[k] = buf[i]
		i++
		k++
	}
	for j < hi {
		s[k] = buf[j]
		j++
		k++
	}
	return inv
}
