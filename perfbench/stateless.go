package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"manirank"
	"manirank/internal/attribute"
	"manirank/internal/fleet"
	"manirank/internal/ranking"
	"manirank/internal/service"
)

// statelessSpec shapes a /v1/aggregate workload: a Zipf-popular pool of
// profiles, each request pairing a profile with a uniformly drawn method.
type statelessSpec struct {
	name      string
	nodes     int
	profiles  int
	zipfS     float64
	methods   []string
	cacheSize int   // result-cache entries per node
	precCells int64 // matrix-tier budget per node; 0 takes the default
	rate      float64
	warmup    int // warm-up requests
}

type item struct{ p, m int }

// statelessEnv is one set-up: the generated inputs, the running nodes and
// the clients.
type statelessEnv struct {
	sp       statelessSpec
	tr       *tracer
	profiles []ranking.Profile
	tab      *attribute.Table
	bodies   [][][]byte // [profile][method]
	fair     []bool     // per method
	checks   []*checker
	z        zipf
	nodes    []*node
	urls     []string
	clients  []*http.Client

	mu    sync.Mutex
	drawn map[int]bool // distinct profiles requested so far
}

func newStatelessEnv(rc runConfig, sp statelessSpec, tr *tracer) (*statelessEnv, error) {
	attrs := serveAttrs()
	tab, err := specTable(attrs, serveN)
	if err != nil {
		return nil, err
	}
	e := &statelessEnv{sp: sp, tr: tr, tab: tab, z: newZipf(sp.zipfS, sp.profiles), drawn: map[int]bool{}}
	for _, m := range sp.methods {
		e.fair = append(e.fair, strings.HasPrefix(m, "fair-"))
	}
	rng := rngFor(catalogSeed, "pool", 0)
	for i := 0; i < sp.profiles; i++ {
		p := serveProfile(rng)
		chk, err := newChecker(p, tab, serveDelta)
		if err != nil {
			return nil, err
		}
		bs := make([][]byte, len(sp.methods))
		for j, m := range sp.methods {
			req := service.AggregateRequest{Method: m, Profile: rows(p), Attributes: attrs, Delta: serveDelta}
			if bs[j], err = json.Marshal(&req); err != nil {
				return nil, err
			}
		}
		e.profiles = append(e.profiles, p)
		e.checks = append(e.checks, chk)
		e.bodies = append(e.bodies, bs)
	}
	e.nodes, err = startNodes(sp.nodes, service.Config{CacheSize: sp.cacheSize, PrecCacheCells: sp.precCells})
	if err != nil {
		return nil, err
	}
	e.urls = nodeURLs(e.nodes)
	e.clients = newClients(clientConns)

	rngs := connRngs(rc, "warmup")
	var rr atomic.Int64
	warm := closedLoop("warmup", clientConns, 0, sp.warmup, func(c, k int) answer {
		return e.send(c, int(rr.Add(1)-1)%sp.nodes, e.draw(rngs[c]))
	})
	if warm.Failed > 0 {
		e.close()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed: %v", warm.Failed, warm.Sent, warm.Fails)
	}
	return e, nil
}

func (e *statelessEnv) close() {
	closeClients(e.clients)
	stopNodes(e.nodes)
}

func connRngs(rc runConfig, stream string) []*rand.Rand {
	out := make([]*rand.Rand, clientConns)
	for c := range out {
		out[c] = rngFor(rc.seed, stream, c)
	}
	return out
}

func (e *statelessEnv) draw(rng *rand.Rand) item {
	return item{p: e.z.draw(rng), m: rng.Intn(len(e.sp.methods))}
}

// send posts one request to node nd over connection conn and checks the
// answer.
func (e *statelessEnv) send(conn, nd int, it item) answer {
	e.mu.Lock()
	e.drawn[it.p] = true
	e.mu.Unlock()
	id, end := e.tr.begin("service.request", 0)
	var resp service.AggregateResponse
	status, err := postJSON(e.clients[conn], e.urls[nd]+"/v1/aggregate", e.bodies[it.p][it.m], &resp)
	end()
	if f := errClass(status, err); f != "" {
		return answer{fail: f}
	}
	a := e.checks[it.p].verify(e.tr, id, resp.Ranking, e.fair[it.m], resp.Partial, resp.PDLoss)
	a.cached, a.digest = resp.Cached, resp.Digest
	return a
}

// openPhase replays a Poisson schedule drawn from the named stream; request
// i goes to node i mod nodes.
func (e *statelessEnv) openPhase(rc runConfig, name, stream string, d time.Duration) phaseStats {
	sched := poissonSchedule(rngFor(rc.seed, stream, 0), e.sp.rate, d)
	irng := rngFor(rc.seed, stream+"-items", 0)
	items := make([]item, len(sched))
	for i := range items {
		items[i] = e.draw(irng)
	}
	ps := openLoop(name, clientConns, sched, func(c, i int) answer {
		return e.send(c, i%e.sp.nodes, items[i])
	})
	ps.Rate = e.sp.rate
	return ps
}

func runStateless(rc runConfig, sp statelessSpec) (*outcome, error) {
	o := newOutcome()
	tr := newTracer()
	var e *statelessEnv
	release := func() {
		if e != nil {
			e.close()
			e = nil
		}
	}
	setupS, setupWall, err := medianSetup(setupReps, release, func() error {
		var err error
		e, err = newStatelessEnv(rc, sp, tr)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer e.close()
	o.e2e["setup_s"] = setupS
	o.meta["setup_wall_s"] = setupWall
	o.meta["open_rate_per_s"] = sp.rate

	closedD, openD := phaseLengths(rc.seconds)
	rngs := connRngs(rc, "closed")
	var rr atomic.Int64
	closedDo := func(c, k int) answer {
		return e.send(c, int(rr.Add(1)-1)%sp.nodes, e.draw(rngs[c]))
	}

	runtime.GC()
	if !rc.trace {
		before, err := scrape(e.clients[0], e.urls)
		if err != nil {
			return nil, err
		}
		closed := closedLoop("closed", clientConns, closedD, 0, closedDo)
		open := e.openPhase(rc, "open", "open", openD)
		after, err := scrape(e.clients[0], e.urls)
		if err != nil {
			return nil, err
		}
		o.phases = []phaseStats{closed, open}
		servingE2E(o, &closed, &open)
		o.meta["cache"] = cacheMeta(deltaSum(before, after))
		o.meta["distinct_profiles"] = len(e.drawn)
		if sp.nodes > 1 {
			o.meta["builds_per_profile"] = e.buildsPerProfile(after)
		}
		return o, nil
	}

	// Traced run: an untraced half of each phase, then a traced half.
	c1 := closedLoop("closed-untraced", clientConns, closedD/2, 0, closedDo)
	o1 := e.openPhase(rc, "open-untraced", "open", openD/2)
	runtime.GC()
	tr.on.Store(true)
	heap := startHeapSampler(10 * time.Millisecond)
	p0 := readProc()
	before, err := scrape(e.clients[0], e.urls)
	if err != nil {
		return nil, err
	}
	c2 := closedLoop("closed", clientConns, closedD/2, 0, closedDo)
	o2 := e.openPhase(rc, "open", "open-traced", openD/2)
	after, err := scrape(e.clients[0], e.urls)
	if err != nil {
		return nil, err
	}
	p1 := readProc()
	o.phases = []phaseStats{c1, o1, c2, o2}
	checkSchedule(o, &o1)
	checkSchedule(o, &o2)
	cacheLayer(o, deltaSum(before, after))
	procLayer(o, p0, p1, c2.Sent+o2.Sent, heap.Stop())
	genLayer(o, &c2, &o2)
	o.layer["service.hit_ms"], o.layer["service.miss_ms"] = splitCached(&o2)
	o.layer["trace.overhead_frac"] = overheadFrac(quantile(o1.latMS, 0.5), quantile(o2.latMS, 0.5))
	if sp.nodes > 1 {
		o.layer["fleet.builds_per_profile"] = e.buildsPerProfile(after)
		if o.layer["fleet.peer_get_ms"], err = e.peerGets(&o2); err != nil {
			return nil, err
		}
	}

	e.decodeDigest()
	o.layer["service.decode_us"] = 1000 * tr.meanMS("service.decode")
	o.layer["service.digest_us"] = 1000 * tr.meanMS("service.digest")
	o.layer["fairness.audit_us"] = 1000 * tr.meanMS("fairness.Audit")
	methods := make([]manirank.Method, len(sp.methods))
	for i, m := range sp.methods {
		if methods[i], err = manirank.ParseMethod(m); err != nil {
			return nil, err
		}
	}
	const replayed = 4
	rp := replay{profiles: e.profiles[:replayed], tab: e.tab, delta: serveDelta, methods: methods, workers: 1}
	for i := 0; i < replayed; i++ {
		rp.updates = append(rp.updates, randomUpdates(rc.seed, "replay-updates", i, 4, serveM, serveN))
	}
	if err := rp.run(tr, o); err != nil {
		return nil, err
	}
	return o, tr.write(tracePath(sp.name, rc.seed))
}

// servingE2E fills the end-to-end metrics of an untraced serving run: the
// CPU costs from the closed phase, the wall-clock figures of both phases in
// the metadata.
func servingE2E(o *outcome, closed, open *phaseStats) {
	checkSchedule(o, open)
	o.e2e["ops_per_cpu_s"] = cpuRate(closed)
	o.e2e["cpu_p50_ms"], _ = blockQuantile(closed.cpuMS, 0.5)
	if v, ok := p99(closed.cpuMS); ok {
		o.e2e["cpu_p99_ms"] = v
	}
	o.meta["closed_ops_per_s"] = windowRate(closed)
	o.meta["open_p50_ms"], _ = blockQuantile(open.latMS, 0.5)
	if v, ok := p99(open.latMS); ok {
		o.meta["open_p99_ms"] = v
	}
	o.e2e["ok_frac"] = okFrac(closed, open)
	o.e2e["pd_loss"] = meanPD(open.answers)
	o.e2e["rss_peak_mib"] = rssPeakMiB()
}

// splitCached is the median client latency of cache hits and of misses.
func splitCached(p *phaseStats) (hit, miss float64) {
	var hs, ms []float64
	for i, l := range p.latMS {
		if p.cached[i] {
			hs = append(hs, l)
		} else {
			ms = append(ms, l)
		}
	}
	return quantile(hs, 0.5), quantile(ms, 0.5)
}

// buildsPerProfile is the fleet's matrix builds since boot over the distinct
// profiles requested since boot (warm-up included).
func (e *statelessEnv) buildsPerProfile(now []series) float64 {
	builds := 0.0
	for _, s := range now {
		builds += s[matrixBuilds]
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return frac(builds, float64(len(e.drawn)))
}

// decodeDigest times the request decode and the digest over every distinct
// body of the workload.
func (e *statelessEnv) decodeDigest() {
	for _, bs := range e.bodies {
		for _, b := range bs {
			var req service.AggregateRequest
			var err error
			e.tr.timed("service.decode", func() { err = json.Unmarshal(b, &req) })
			if err == nil {
				e.tr.timed("service.digest", func() { service.Digests(&req) })
			}
		}
	}
}

// peerGets times GET /internal/v1/peer/results/{digest} against each
// digest's owner, for the distinct digests answered last in the phase (the
// ones most likely still resident), and returns the mean over those found.
func (e *statelessEnv) peerGets(p *phaseStats) (float64, error) {
	const want = 40
	ring := e.nodes[0].ring
	seen := map[string]bool{}
	var total time.Duration
	found := 0
	for i := len(p.answers) - 1; i >= 0 && len(seen) < want; i-- {
		dg := p.answers[i].digest
		if dg == "" || seen[dg] {
			continue
		}
		seen[dg] = true
		owner, _ := ring.Route(dg)
		req, err := http.NewRequest(http.MethodGet, owner+fleet.PathPrefix+fleet.KindResults+"/"+dg, nil)
		if err != nil {
			return 0, err
		}
		req.Header.Set(fleet.NamespaceHeader, ring.Namespace())
		t0 := time.Now()
		_, end := e.tr.begin("fleet.peer_get", 0)
		resp, err := e.clients[0].Do(req)
		if err != nil {
			end()
			return 0, fmt.Errorf("peer get: %w", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body) // the payload is only timed
		resp.Body.Close()
		end()
		if resp.StatusCode == http.StatusOK {
			total += time.Since(t0)
			found++
		}
	}
	if found == 0 {
		return 0, nil
	}
	return msOf(total) / float64(found), nil
}
