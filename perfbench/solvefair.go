package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"manirank"
	"manirank/internal/attribute"
	"manirank/internal/mallows"
	"manirank/internal/ranking"
	"manirank/internal/unfairgen"
)

// solve-fair shape: a fixed batch of Table I-style instances at large n,
// solved one after another with fair-kemeny.
const (
	fairN         = 990
	fairM         = 50
	fairTheta     = 3.0
	fairDelta     = 0.1
	fairInstances = 8
	// fairPerturbations turns the perturbed restarts off: each solve is the
	// incumbent, the repair and one constrained descent. With the default
	// eight restarts the solve time of near-identical instances moved by 30%
	// between seeds, as the restart descents' lengths vary.
	fairPerturbations = -1
	// fairWorkers solves on one goroutine. Without restarts, sharding the
	// descent's scans over two CPUs gained under 5% at n = 990 and let a
	// busy neighbour on a shared machine move the solve time by 25%.
	fairWorkers = 1
)

type fairEnv struct {
	tab      *attribute.Table
	targets  []manirank.Target
	profiles []ranking.Profile
	engines  []*manirank.Engine
	checks   []*checker
	// first[i] is instance i's first answer; every later solve of it must
	// return the same ranking.
	first   []ranking.Ranking
	firstPD []float64
}

// newFairEnv generates the instances, builds their Engines (the O(n^2 m)
// precedence matrices, on one goroutine like the solves) and solves the
// first instance once as the warm-up.
// The modal ranking sorts biased scores — every Gender and Race value shifts
// its group's mean — so the Delta = 0.1 constraints bind; the rankers are
// Plackett-Luce draws around it. The batch is fixed like the serving
// catalogue, and --seed does not change it: with seeded rankers the mean
// solve time of eight instances moved by 15% between seeds.
func newFairEnv() (*fairEnv, error) {
	tab, err := unfairgen.PaperTable(fairN)
	if err != nil {
		return nil, err
	}
	effects := [][]float64{{0.6, 0, -0.6}, {0.6, 0.3, 0, -0.3, -0.6}}
	modal := unfairgen.ScoreRanking(unfairgen.BiasedScores(tab, 0, 1, effects, rngFor(catalogSeed, "modal", 0)))
	e := &fairEnv{
		tab:     tab,
		targets: manirank.Targets(tab, fairDelta),
		first:   make([]ranking.Ranking, fairInstances),
		firstPD: make([]float64, fairInstances),
	}
	pl := mallows.MustNewPlackettLuce(modal, fairTheta)
	for i := 0; i < fairInstances; i++ {
		p := pl.SampleProfile(fairM, rngFor(catalogSeed, "instance", i))
		eng, err := manirank.NewEngine(p, manirank.WithTable(tab), manirank.WithPrecedenceWorkers(1))
		if err != nil {
			return nil, err
		}
		chk := &checker{n: fairN, w: eng.Precedence(), tab: tab, delta: fairDelta}
		e.profiles = append(e.profiles, p)
		e.engines = append(e.engines, eng)
		e.checks = append(e.checks, chk)
	}
	if a, _, _ := e.solve(nil, 0); !a.ok() {
		return nil, fmt.Errorf("warm-up solve failed its check: %s", a.fail)
	}
	return e, nil
}

// solve runs fair-kemeny on instance i and checks the answer; it returns
// the answer and the solve's own wall and CPU time.
func (e *fairEnv) solve(tr *tracer, i int) (a answer, took, cpu time.Duration) {
	id, end := tr.begin("manirank.Engine.Solve", 0)
	c0, t0 := cpuTime(), time.Now()
	res, err := e.engines[i].Solve(context.Background(), manirank.MethodFairKemeny, e.targets,
		manirank.WithSolverWorkers(fairWorkers), manirank.WithPerturbations(fairPerturbations))
	took, cpu = time.Since(t0), cpuTime()-c0
	end()
	if err != nil {
		return answer{fail: "invalid"}, took, cpu
	}
	a = e.checks[i].verify(tr, id, res.Ranking, true, res.Partial, res.PDLoss)
	if !a.ok() {
		return a, took, cpu
	}
	if e.first[i] == nil {
		e.first[i], e.firstPD[i] = res.Ranking, a.pdLoss
	} else if !e.first[i].Equal(res.Ranking) {
		return answer{fail: "nondeterministic"}, took, cpu
	}
	return a, took, cpu
}

// solveLoop solves the instances in order, one after another, until d has
// passed and at least minOps solves are done. Latencies are the solves' own
// wall times; cpuMS holds their CPU times.
func (e *fairEnv) solveLoop(tr *tracer, name string, d time.Duration, minOps int) phaseStats {
	ps := phaseStats{Name: name}
	cpu0 := cpuTime()
	start := time.Now()
	for k := 0; time.Since(start) < d || k < minOps; k++ {
		a, took, cpu := e.solve(tr, k%fairInstances)
		ps.record(a, msOf(took), time.Since(start).Seconds())
		if a.ok() {
			ps.cpuMS = append(ps.cpuMS, msOf(cpu))
		}
	}
	ps.Seconds = time.Since(start).Seconds()
	ps.CPUSeconds = (cpuTime() - cpu0).Seconds()
	return ps
}

// slowestInstanceMS stands in for a tail percentile, which a few dozen solves
// cannot support: it is the median time of the batch's slowest instance. The
// slowest single solve moved by 40% between runs. ps holds the solves of
// solveLoop, instance k mod fairInstances at position k; xs holds a time per
// passing solve (ps.latMS or ps.cpuMS).
func slowestInstanceMS(ps *phaseStats, xs []float64) float64 {
	per := make([][]float64, fairInstances)
	j := 0 // xs holds the passing solves only
	for k, a := range ps.answers {
		if a.ok() {
			per[k%fairInstances] = append(per[k%fairInstances], xs[j])
			j++
		}
	}
	worst := 0.0
	for _, xs := range per {
		if len(xs) > 0 {
			worst = max(worst, quantile(xs, 0.5))
		}
	}
	return worst
}

// answerHash fingerprints every instance's ranking, so runs of one seed can
// be compared for identical answers.
func (e *fairEnv) answerHash() string {
	h := sha256.New()
	var b [8]byte
	for _, r := range e.first {
		for _, c := range r {
			binary.LittleEndian.PutUint64(b[:], uint64(c))
			_, _ = h.Write(b[:]) // hash writes never fail
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func runSolveFair(rc runConfig) (*outcome, error) {
	o := newOutcome()
	tr := newTracer()
	var e *fairEnv
	setupS, setupWall, err := medianSetup(setupReps, func() { e = nil }, func() error {
		var err error
		e, err = newFairEnv()
		return err
	})
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setupS
	o.meta["setup_wall_s"] = setupWall
	d := time.Duration(rc.seconds * float64(time.Second))

	runtime.GC()
	if !rc.trace {
		// Every instance is solved at least once, so pd_loss and the answer
		// hash cover the whole batch whatever --seconds is.
		ps := e.solveLoop(tr, "closed", d, fairInstances)
		o.phases = []phaseStats{ps}
		o.e2e["ops_per_cpu_s"] = cpuRate(&ps)
		o.meta["closed_ops_per_s"] = float64(ps.OK) / ps.Seconds
		o.e2e["cpu_p50_ms"] = quantile(ps.cpuMS, 0.5)
		o.e2e["cpu_p99_ms"] = slowestInstanceMS(&ps, ps.cpuMS)
		o.meta["wall_p50_ms"] = quantile(ps.latMS, 0.5)
		o.meta["wall_p99_ms"] = slowestInstanceMS(&ps, ps.latMS)
		o.e2e["ok_frac"] = okFrac(&ps)
		pd := 0.0
		for _, v := range e.firstPD {
			pd += v
		}
		o.e2e["pd_loss"] = pd / fairInstances
		o.e2e["rss_peak_mib"] = rssPeakMiB()
		o.meta["answer_hash"] = e.answerHash()
		return o, nil
	}

	ps1 := e.solveLoop(tr, "closed-untraced", d/2, 0)
	runtime.GC()
	tr.on.Store(true)
	heap := startHeapSampler(10 * time.Millisecond)
	p0 := readProc()
	ps2 := e.solveLoop(tr, "closed", d/2, 0)
	p1 := readProc()
	o.phases = []phaseStats{ps1, ps2}
	procLayer(o, p0, p1, ps2.Sent, heap.Stop())
	genLayer(o, &ps2, nil)
	o.layer["trace.overhead_frac"] = overheadFrac(quantile(ps1.latMS, 0.5), quantile(ps2.latMS, 0.5))
	o.layer["fairness.audit_us"] = 1000 * tr.meanMS("fairness.Audit")

	rp := replay{
		profiles: e.profiles[:2], tab: e.tab, delta: fairDelta,
		methods: []manirank.Method{manirank.MethodFairKemeny}, workers: fairWorkers,
		perturbations: fairPerturbations,
	}
	for i := range rp.profiles {
		rp.updates = append(rp.updates, randomUpdates(rc.seed, "replay-updates", i, 1, fairM, fairN))
	}
	if err := rp.run(tr, o); err != nil {
		return nil, err
	}
	return o, tr.write(tracePath("solve-fair", rc.seed))
}
