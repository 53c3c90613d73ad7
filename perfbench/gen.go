package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// answer is one request's outcome as the generator records it.
type answer struct {
	// fail is empty when the answer passed every check, else its class:
	// "429", "5xx", "status", "transport", "partial", "invalid", "unfair",
	// "pd_mismatch" or "nondeterministic".
	fail   string
	cached bool
	pdLoss float64
	digest string // the result-cache key the server answered under
}

func (a answer) ok() bool { return a.fail == "" }

// phaseStats is what one timed phase measured.
type phaseStats struct {
	Name    string         `json:"name"`
	Seconds float64        `json:"seconds"`
	Rate    float64        `json:"rate_per_s,omitempty"`
	Sent    int            `json:"sent"`
	OK      int            `json:"ok"`
	Failed  int            `json:"failed"`
	Fails   map[string]int `json:"fails,omitempty"`
	LateP99 float64        `json:"late_p99_ms"`
	LateMax float64        `json:"late_max_ms"`
	// CPUSeconds is the CPU time this process (servers, generator and
	// checks) spent during a closed phase.
	CPUSeconds float64 `json:"cpu_s,omitempty"`

	// latMS holds the latency of each answer that passed its checks, in
	// send order for an open loop; failed requests are left out of it. endS
	// holds when each of those answers arrived, in seconds from the phase
	// start.
	latMS []float64
	endS  []float64
	// cpuMS holds, for a closed phase, the CPU time this process spent
	// while each passing request was in flight. With one connection that is
	// the request's own cost: client, servers and checks.
	cpuMS   []float64
	cached  []bool
	answers []answer
}

func (p *phaseStats) record(a answer, ms, endS float64) {
	p.Sent++
	p.answers = append(p.answers, a)
	if !a.ok() {
		p.Failed++
		if p.Fails == nil {
			p.Fails = map[string]int{}
		}
		p.Fails[a.fail]++
		return
	}
	p.OK++
	p.latMS = append(p.latMS, ms)
	p.endS = append(p.endS, endS)
	p.cached = append(p.cached, a.cached)
}

// poissonSchedule returns the intended send offsets of a Poisson process at
// rate arrivals per second over d, drawn from rng.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// openLoop sends request i at offset sched[i] from the phase start, whether
// or not earlier requests have been answered, and times each from that
// intended send time: a stall delays every request queued behind it and
// shows in their latencies. conns workers carry the requests, so at most
// conns are in flight; any free worker takes the next due request. Lateness
// is how far behind the schedule the dispatcher itself handed a request over.
func openLoop(name string, conns int, sched []time.Duration, do func(conn, i int) answer) phaseStats {
	due := make(chan int, len(sched))
	ans := make([]answer, len(sched))
	lat := make([]float64, len(sched))
	ends := make([]float64, len(sched))
	late := make([]float64, len(sched))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range due {
				ans[i] = do(c, i)
				end := time.Since(start)
				lat[i], ends[i] = msOf(end-sched[i]), end.Seconds()
			}
		}(c)
	}
	for i, at := range sched {
		if d := time.Until(start.Add(at)); d > 0 {
			time.Sleep(d)
		}
		late[i] = msOf(time.Since(start) - at)
		due <- i
	}
	close(due)
	wg.Wait()
	ps := phaseStats{Name: name, Seconds: time.Since(start).Seconds()}
	for i := range sched {
		ps.record(ans[i], lat[i], ends[i])
	}
	ps.LateP99 = quantile(late, 0.99)
	ps.LateMax = quantile(late, 1)
	return ps
}

// closedLoop runs conns workers that each send their next request as soon as
// the previous one is answered, until d has passed and at least minOps
// requests were sent. do(conn, k) sends worker conn's k-th request.
func closedLoop(name string, conns int, d time.Duration, minOps int, do func(conn, k int) answer) phaseStats {
	type timed struct {
		a             answer
		ms, cpu, endS float64
	}
	per := make([][]timed, conns)
	var sent atomic.Int64
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Since(start) < d || sent.Load() < int64(minOps); k++ {
				sent.Add(1)
				c0, t0 := cpuTime(), time.Now()
				a := do(c, k)
				now := time.Now()
				per[c] = append(per[c], timed{a, msOf(now.Sub(t0)), msOf(cpuTime() - c0), now.Sub(start).Seconds()})
			}
		}(c)
	}
	wg.Wait()
	ps := phaseStats{Name: name, Seconds: time.Since(start).Seconds(), CPUSeconds: (cpuTime() - cpu0).Seconds()}
	for _, rs := range per {
		for _, r := range rs {
			ps.record(r.a, r.ms, r.endS)
			if r.a.ok() {
				ps.cpuMS = append(ps.cpuMS, r.cpu)
			}
		}
	}
	return ps
}

// quantile returns the nearest-rank q-quantile of xs (q = 1 is the maximum),
// or 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// blockSize is how many consecutive open-loop latencies make one block: the
// fewest a p99 is reported from, so that ten samples lie beyond it.
const blockSize = 1000

// blockQuantile cuts xs, in send order, into whole blocks of blockSize and
// returns the median over the blocks of each block's q-quantile, and the
// number of blocks. A block hit by a burst of load from outside the
// benchmark moves the figure less than it moves a quantile over the whole
// phase. With less than one block it returns the quantile of all of xs.
func blockQuantile(xs []float64, q float64) (float64, int) {
	nb := len(xs) / blockSize
	if nb == 0 {
		return quantile(xs, q), 0
	}
	per := make([]float64, nb)
	for b := range per {
		per[b] = quantile(xs[b*blockSize:(b+1)*blockSize], q)
	}
	return quantile(per, 0.5), nb
}

// p99 is the block median of the 99th percentile, and false when xs holds
// less than one block.
func p99(xs []float64) (float64, bool) {
	v, nb := blockQuantile(xs, 0.99)
	return v, nb > 0
}

// cpuRate is the answers that passed per CPU-second of a closed phase. A
// neighbour on a shared machine that takes CPU time from the benchmark slows
// the phase's wall clock, but not the CPU time each answer costs.
func cpuRate(p *phaseStats) float64 {
	if p.CPUSeconds <= 0 {
		return 0
	}
	return float64(p.OK) / p.CPUSeconds
}

// windowRate is the median, over the whole one-second windows of a phase, of
// the answers that passed per second; a phase shorter than three windows
// reports its mean rate.
func windowRate(p *phaseStats) float64 {
	nw := int(p.Seconds)
	if nw < 3 {
		return float64(p.OK) / p.Seconds
	}
	per := make([]float64, nw)
	for _, e := range p.endS {
		if w := int(e); w < nw {
			per[w]++
		}
	}
	return quantile(per, 0.5)
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
