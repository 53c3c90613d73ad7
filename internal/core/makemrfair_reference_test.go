package core

// Bitwise-parity pins for the tracker-backed parityEngine: the historical
// engine — full O(n·g) candidate rescans per iteration, O(span·q) window
// walks per swap — is preserved here verbatim, and the repair algorithms
// driven by the new engine must reproduce its outputs exactly on random
// instances: same swaps in the same order, hence identical rankings.

import (
	"math"
	"math/rand"
	"testing"

	"manirank/internal/ranking"
)

// refEngine is the pre-incremental parityEngine, verbatim.
type refEngine struct {
	r       ranking.Ranking
	pos     []int
	tgts    []Target
	wins    [][]int
	omegaM  [][]int
	jointOf []int
	jointG  int
}

func newRefEngine(r ranking.Ranking, targets []Target) *refEngine {
	eng := &refEngine{
		r:      r.Clone(),
		pos:    r.Positions(),
		tgts:   targets,
		wins:   make([][]int, len(targets)),
		omegaM: make([][]int, len(targets)),
	}
	n := len(r)
	for k, tg := range targets {
		g := tg.Attr.DomainSize()
		sizes := tg.Attr.GroupSizes()
		eng.wins[k] = make([]int, g)
		eng.omegaM[k] = make([]int, g)
		seen := make([]int, g)
		for i, c := range eng.r {
			v := tg.Attr.Of[c]
			below := n - 1 - i
			sameBelow := sizes[v] - seen[v] - 1
			eng.wins[k][v] += below - sameBelow
			seen[v]++
		}
		for v := 0; v < g; v++ {
			eng.omegaM[k][v] = sizes[v] * (n - sizes[v])
		}
	}
	eng.buildJoint()
	return eng
}

func (eng *refEngine) buildJoint() {
	n := len(eng.r)
	if len(eng.tgts) == 0 {
		return
	}
	joint := make([]int, n)
	index := map[int]int{}
	for c := 0; c < n; c++ {
		key := 0
		for _, tg := range eng.tgts {
			key = key*tg.Attr.DomainSize() + tg.Attr.Of[c]
		}
		id, ok := index[key]
		if !ok {
			id = len(index)
			if id >= maxJointGroups {
				return
			}
			index[key] = id
		}
		joint[c] = id
	}
	eng.jointOf = joint
	eng.jointG = len(index)
}

func (eng *refEngine) fpr(k, v int) float64 {
	if eng.omegaM[k][v] == 0 {
		return 0.5
	}
	return float64(eng.wins[k][v]) / float64(eng.omegaM[k][v])
}

func (eng *refEngine) spread(k int) float64 {
	lo, hi := 2.0, -1.0
	for v := 0; v < eng.tgts[k].Attr.DomainSize(); v++ {
		f := eng.fpr(k, v)
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	return hi - lo
}

func (eng *refEngine) worstTarget() int {
	worst, idx := 0.0, -1
	for k, tg := range eng.tgts {
		s := eng.spread(k)
		if s > tg.Delta+1e-12 && s > worst {
			worst, idx = s, k
		}
	}
	return idx
}

func (eng *refEngine) extremeGroups(k int) (vh, vl int) {
	g := eng.tgts[k].Attr.DomainSize()
	hi, lo := -1.0, 2.0
	for v := 0; v < g; v++ {
		f := eng.fpr(k, v)
		if f > hi {
			hi, vh = f, v
		}
		if f < lo {
			lo, vl = f, v
		}
	}
	return vh, vl
}

func (eng *refEngine) findSwap(k, vh, vl int) (i, j int, ok bool) {
	of := eng.tgts[k].Attr.Of
	nearestVLBelow := -1
	for p := len(eng.r) - 1; p >= 0; p-- {
		switch of[eng.r[p]] {
		case vh:
			if nearestVLBelow >= 0 {
				return p, nearestVLBelow, true
			}
		case vl:
			nearestVLBelow = p
		}
	}
	return 0, 0, false
}

func (eng *refEngine) potential() float64 {
	p := 0.0
	for k, tg := range eng.tgts {
		if s := eng.spread(k); s > tg.Delta+1e-12 {
			p += s - tg.Delta
		}
	}
	return p
}

func (eng *refEngine) potentialAfter(i, j int) float64 {
	a, b := eng.r[i], eng.r[j]
	d := j - i
	p := 0.0
	for k, tg := range eng.tgts {
		s := eng.spreadAfterTransfer(k, tg.Attr.Of[a], tg.Attr.Of[b], d)
		if s > tg.Delta+1e-12 {
			p += s - tg.Delta
		}
	}
	return p
}

func (eng *refEngine) spreadAfterTransfer(k, a, b, d int) float64 {
	if a == b {
		return eng.spread(k)
	}
	g := eng.tgts[k].Attr.DomainSize()
	lo, hi := 2.0, -1.0
	for v := 0; v < g; v++ {
		var f float64
		if eng.omegaM[k][v] == 0 {
			f = 0.5
		} else {
			w := eng.wins[k][v]
			if v == a {
				w -= d
			}
			if v == b {
				w += d
			}
			f = float64(w) / float64(eng.omegaM[k][v])
		}
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	return hi - lo
}

func (eng *refEngine) band() float64 {
	b := 0.0
	for k, tg := range eng.tgts {
		for v := 0; v < tg.Attr.DomainSize(); v++ {
			b += bandExcess(eng.fpr(k, v), tg.Delta)
		}
	}
	return b
}

func (eng *refEngine) bandAfter(i, j int) float64 {
	a, b := eng.r[i], eng.r[j]
	d := j - i
	total := 0.0
	for k, tg := range eng.tgts {
		va, vb := tg.Attr.Of[a], tg.Attr.Of[b]
		for v := 0; v < tg.Attr.DomainSize(); v++ {
			var f float64
			if eng.omegaM[k][v] == 0 {
				f = 0.5
			} else {
				w := eng.wins[k][v]
				if va != vb {
					if v == va {
						w -= d
					}
					if v == vb {
						w += d
					}
				}
				f = float64(w) / float64(eng.omegaM[k][v])
			}
			total += bandExcess(f, tg.Delta)
		}
	}
	return total
}

func (eng *refEngine) findCappedSwap(k, vh, vl int) (i, j int, ok bool) {
	tg := eng.tgts[k]
	if eng.omegaM[k][vh] == 0 || eng.omegaM[k][vl] == 0 {
		return 0, 0, false
	}
	gap := eng.fpr(k, vh) - eng.fpr(k, vl)
	if gap <= tg.Delta {
		return 0, 0, false
	}
	step := 1/float64(eng.omegaM[k][vh]) + 1/float64(eng.omegaM[k][vl])
	dmax := int(math.Ceil((gap-tg.Delta)/step - 1e-9))
	if dmax < 1 {
		return 0, 0, false
	}
	of := tg.Attr.Of
	var vhPos, vlPos []int
	for p, c := range eng.r {
		switch of[c] {
		case vh:
			vhPos = append(vhPos, p)
		case vl:
			vlPos = append(vlPos, p)
		}
	}
	bestD := 0
	hi := 0
	for _, q := range vlPos {
		for hi < len(vhPos) && vhPos[hi] < q-dmax {
			hi++
		}
		if hi < len(vhPos) && vhPos[hi] < q {
			if d := q - vhPos[hi]; d > bestD {
				bestD = d
				i, j, ok = vhPos[hi], q, true
			}
		}
	}
	return i, j, ok
}

func (eng *refEngine) findBestGlobalTransfer(cur float64) (i, j int, ok bool) {
	bestP := cur
	bestB := eng.band()
	consider := func(pi, pj int) {
		p := eng.potentialAfter(pi, pj)
		if p > bestP+1e-15 {
			return
		}
		b := eng.bandAfter(pi, pj)
		if p < bestP-1e-15 || b < bestB-1e-15 {
			bestP, bestB = p, b
			i, j, ok = pi, pj, true
		}
	}
	if eng.jointOf != nil {
		eng.eachMinDistPair(eng.jointOf, eng.jointG, consider)
		return i, j, ok
	}
	for k := range eng.tgts {
		eng.eachMinDistPair(eng.tgts[k].Attr.Of, eng.tgts[k].Attr.DomainSize(), consider)
	}
	return i, j, ok
}

func (eng *refEngine) findBestAdjacentSwap(cur float64) (pos int, ok bool) {
	bestP := cur
	bestB := eng.band()
	for p := 0; p+1 < len(eng.r); p++ {
		pp := eng.potentialAfter(p, p+1)
		if pp > bestP+1e-15 {
			continue
		}
		b := eng.bandAfter(p, p+1)
		if pp < bestP-1e-15 || b < bestB-1e-15 {
			bestP, bestB = pp, b
			pos, ok = p, true
		}
	}
	return pos, ok
}

func (eng *refEngine) eachMinDistPair(of []int, g int, fn func(i, j int)) {
	n := len(eng.r)
	const none = -1
	minD := make([]int, g*g)
	pairPos := make([][2]int, g*g)
	for idx := range minD {
		minD[idx] = none
	}
	nearestBelow := make([]int, g)
	for v := range nearestBelow {
		nearestBelow[v] = none
	}
	for p := n - 1; p >= 0; p-- {
		a := of[eng.r[p]]
		for b := 0; b < g; b++ {
			if b == a || nearestBelow[b] == none {
				continue
			}
			if d := nearestBelow[b] - p; minD[a*g+b] == none || d < minD[a*g+b] {
				minD[a*g+b] = d
				pairPos[a*g+b] = [2]int{p, nearestBelow[b]}
			}
		}
		nearestBelow[a] = p
	}
	for idx := range minD {
		if minD[idx] != none {
			fn(pairPos[idx][0], pairPos[idx][1])
		}
	}
}

func (eng *refEngine) swap(i, j int) {
	if i > j {
		i, j = j, i
	}
	a, b := eng.r[i], eng.r[j]
	for k, tg := range eng.tgts {
		of := tg.Attr.Of
		va, vb := of[a], of[b]
		w := eng.wins[k]
		if va != vb {
			w[va]--
			w[vb]++
		}
		for p := i + 1; p < j; p++ {
			vc := of[eng.r[p]]
			if vc != va {
				w[va]--
				w[vc]++
			}
			if vc != vb {
				w[vb]++
				w[vc]--
			}
		}
	}
	eng.r[i], eng.r[j] = b, a
	eng.pos[a], eng.pos[b] = j, i
}

// referenceMakeMRFair is MakeMRFairWithPolicy driven by the historical
// engine: PolicyImpactful tries the paper's pair and the capped pair before
// the best minimum-distance transfer, PolicyFineGrained takes that transfer
// every step. It returns the swap count alongside the ranking.
func referenceMakeMRFair(r ranking.Ranking, targets []Target, policy RepairPolicy) (ranking.Ranking, int, error) {
	eng := newRefEngine(r, targets)
	n := len(r)
	maxIters := n*n*(len(targets)+1) + n
	for iter := 0; ; iter++ {
		cur := eng.potential()
		if cur <= 0 {
			return eng.r, iter, nil
		}
		if iter >= maxIters {
			return nil, iter, ErrUnrepairable
		}
		if policy == PolicyImpactful {
			k := eng.worstTarget()
			vh, vl := eng.extremeGroups(k)
			i1, j1, ok1 := eng.findSwap(k, vh, vl)
			i2, j2, ok2 := eng.findCappedSwap(k, vh, vl)
			if ok1 && ok2 && j2-i2 > j1-i1 {
				i1, j1, i2, j2 = i2, j2, i1, j1
			} else if !ok1 {
				i1, j1, ok1 = i2, j2, ok2
				ok2 = false
			}
			if ok1 && eng.potentialAfter(i1, j1) < cur-1e-15 {
				eng.swap(i1, j1)
				continue
			}
			if ok2 && eng.potentialAfter(i2, j2) < cur-1e-15 {
				eng.swap(i2, j2)
				continue
			}
		}
		i, j, ok := eng.findBestGlobalTransfer(cur)
		if !ok {
			return nil, iter, ErrUnrepairable
		}
		eng.swap(i, j)
	}
}

// referenceRepairToLevels is RepairToLevels driven by the historical engine.
func referenceRepairToLevels(r ranking.Ranking, targets []Target) (ranking.Ranking, error) {
	eng := newRefEngine(r, targets)
	n := len(r)
	maxIters := n*n*(len(targets)+1) + n
	for iter := 0; ; iter++ {
		cur := eng.potential()
		if cur <= 0 {
			return eng.r, nil
		}
		if iter >= maxIters {
			return nil, ErrUnrepairable
		}
		if p, ok := eng.findBestAdjacentSwap(cur); ok {
			eng.swap(p, p+1)
			continue
		}
		i, j, ok := eng.findBestGlobalTransfer(cur)
		if !ok {
			return nil, ErrUnrepairable
		}
		eng.swap(i, j)
	}
}

// TestMakeMRFairMatchesReferenceEngine pins the tracker-backed repair bitwise
// to the historical full-rescan engine across random instances, including
// multi-attribute tables (exercising the joint grouping) and wide domains
// (exercising per-target enumeration when the joint structure is capped):
// MakeMRFair, both MakeMRFairWithPolicy policies with their swap counts, and
// RepairToLevels.
func TestMakeMRFairMatchesReferenceEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	shapes := [][]int{{2}, {2, 3}, {3, 5}, {2, 2, 4}, {8}}
	for trial := 0; trial < 60; trial++ {
		n := 8 + rng.Intn(60)
		tab := randomTable(t, n, shapes[trial%len(shapes)], rng)
		delta := 0.05 + 0.3*rng.Float64()
		targets := Targets(tab, delta)
		start := ranking.Random(n, rng)

		want, _, wantErr := referenceMakeMRFair(start, targets, PolicyImpactful)
		got, gotErr := MakeMRFair(start, targets)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error mismatch: ref %v, got %v", trial, wantErr, gotErr)
		}
		if wantErr == nil && !got.Equal(want) {
			t.Fatalf("trial %d: MakeMRFair diverged from reference engine\nref %v\ngot %v", trial, want, got)
		}

		for _, policy := range []RepairPolicy{PolicyImpactful, PolicyFineGrained} {
			want, wantSwaps, wantErr := referenceMakeMRFair(start, targets, policy)
			got, gotSwaps, gotErr := MakeMRFairWithPolicy(start, targets, policy)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("trial %d policy %d: error mismatch: ref %v, got %v", trial, policy, wantErr, gotErr)
			}
			if wantErr == nil && (!got.Equal(want) || gotSwaps != wantSwaps) {
				t.Fatalf("trial %d policy %d: diverged from reference engine\nref %v (%d swaps)\ngot %v (%d swaps)",
					trial, policy, want, wantSwaps, got, gotSwaps)
			}
		}

		want, wantErr = referenceRepairToLevels(start, targets)
		got, gotErr = RepairToLevels(start, targets)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: RepairToLevels error mismatch: ref %v, got %v", trial, wantErr, gotErr)
		}
		if wantErr == nil && !got.Equal(want) {
			t.Fatalf("trial %d: RepairToLevels diverged from reference engine\nref %v\ngot %v", trial, want, got)
		}
	}
}
