package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"manirank/internal/attribute"
	"manirank/internal/ranking"
)

func TestP99NeedsAThousandSamples(t *testing.T) {
	xs := make([]float64, blockSize-1)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := p99(xs); ok {
		t.Fatalf("p99 reported from %d samples", len(xs))
	}
	xs = append(xs, float64(len(xs)))
	v, ok := p99(xs)
	if !ok || v != 989 {
		t.Fatalf("p99 of 0..999 = %v, %v; want 989, true", v, ok)
	}
}

func TestBlockQuantileIsTheMedianOverBlocks(t *testing.T) {
	// Three blocks; the middle one is slow throughout. The block median of
	// p50 must come from a typical block, not be pulled by the slow one.
	var xs []float64
	for _, level := range []float64{1, 100, 2} {
		for i := 0; i < blockSize; i++ {
			xs = append(xs, level+float64(i%2)/10)
		}
	}
	v, nb := blockQuantile(xs, 0.5)
	if nb != 3 || v != 2 {
		t.Fatalf("blockQuantile = %v over %d blocks; want 2 over 3", v, nb)
	}
}

func TestPoissonScheduleIsSeededAndBounded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 200, 2*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 200, 2*time.Second)
	if len(a) != len(b) || len(a) < 300 || len(a) > 500 {
		t.Fatalf("schedule lengths %d, %d; want equal and near 400", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || a[i] >= 2*time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("schedule differs or is out of order at %d", i)
		}
	}
}

// TestOpenLoopTimesFromIntendedSendTime drives a server that stalls once.
// Requests due while the only connection is stuck must carry the wait in
// their latency, and the generator itself must stay on schedule.
func TestOpenLoopTimesFromIntendedSendTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := srv.Client()
	sched := make([]time.Duration, 30)
	for i := range sched {
		sched[i] = time.Duration(i) * 20 * time.Millisecond
	}
	ps := openLoop("test", 1, sched, func(conn, i int) answer {
		resp, err := c.Get(srv.URL)
		if err != nil {
			return answer{fail: "transport"}
		}
		resp.Body.Close()
		return answer{}
	})
	if ps.OK != len(sched) {
		t.Fatalf("%d of %d requests passed", ps.OK, len(sched))
	}
	// Request 5 was due at 100ms and could only be sent after the stall
	// ended at 300ms.
	if got := ps.latMS[5]; got < 150 {
		t.Errorf("request due during the stall took %.1f ms; want the queueing wait counted (>= 150)", got)
	}
	if got := ps.latMS[len(sched)-1]; got > 100 {
		t.Errorf("last request took %.1f ms; the backlog should have drained", got)
	}
	if ps.LateMax > 50 {
		t.Errorf("dispatcher ran %.1f ms late; it must not wait for answers", ps.LateMax)
	}
}

// TestOKFracCountsEveryFailureClass sends one request per programmed answer
// through the serving path and checks how each is counted.
func TestOKFracCountsEveryFailureClass(t *testing.T) {
	const n = 6
	gender, err := attribute.NewAttribute("Gender", []string{"M", "W"}, []int{0, 1, 0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := attribute.NewTable(n, gender)
	if err != nil {
		t.Fatal(err)
	}
	p := ranking.Profile{{0, 1, 2, 3, 4, 5}, {1, 0, 2, 3, 5, 4}, {0, 1, 3, 2, 4, 5}}
	chk, err := newChecker(p, tab, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := ranking.Ranking{0, 1, 2, 3, 4, 5}
	type reply struct {
		status  int
		ranking []int
		partial bool
		pd      float64
	}
	replies := []reply{
		{status: 200, ranking: good, pd: chk.w.PDLoss(good)},
		{status: 429},
		{status: 500},
		{status: 504},
		{status: 200, ranking: good, partial: true, pd: chk.w.PDLoss(good)},
		{status: 200, ranking: []int{0, 1, 2, 3, 4, 4}},
		{status: 200, ranking: good, pd: 0.5},
	}
	want := []string{"", "429", "5xx", "5xx", "partial", "invalid", "pd_mismatch"}
	var mu sync.Mutex
	next := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		rp := replies[next]
		next++
		mu.Unlock()
		w.WriteHeader(rp.status)
		if rp.status == 200 {
			fmt.Fprintf(w, `{"ranking":%s,"partial":%v,"pd_loss":%v,"cached":false}`, mustJSON(t, rp.ranking), rp.partial, rp.pd)
		}
	}))
	defer srv.Close()
	e := &statelessEnv{
		sp:      statelessSpec{methods: []string{"borda"}, nodes: 1},
		bodies:  [][][]byte{{[]byte(`{}`)}},
		fair:    []bool{false},
		checks:  []*checker{chk},
		urls:    []string{srv.URL},
		clients: newClients(1),
		drawn:   map[int]bool{},
	}
	ps := closedLoop("test", 1, 0, len(replies), func(c, k int) answer { return e.send(c, 0, item{}) })
	if ps.Sent != len(replies) {
		t.Fatalf("sent %d, want %d", ps.Sent, len(replies))
	}
	for i, a := range ps.answers {
		if a.fail != want[i] {
			t.Errorf("reply %d counted as %q, want %q", i, a.fail, want[i])
		}
	}
	if got := okFrac(&ps); got != 1.0/float64(len(replies)) {
		t.Errorf("ok_frac = %v, want 1/%d", got, len(replies))
	}
}

func TestUnfairAnswerIsAMiss(t *testing.T) {
	gender, err := attribute.NewAttribute("Gender", []string{"M", "W"}, []int{0, 0, 0, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := attribute.NewTable(6, gender)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := newChecker(ranking.Profile{{0, 1, 2, 3, 4, 5}}, tab, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	blocked := []int{0, 1, 2, 3, 4, 5} // every man above every woman: ARP 1
	if a := chk.verify(nil, 0, blocked, true, false, chk.w.PDLoss(blocked)); a.fail != "unfair" {
		t.Fatalf("a maximally unfair answer to a fair method counted as %q", a.fail)
	}
	if a := chk.verify(nil, 0, blocked, false, false, chk.w.PDLoss(blocked)); !a.ok() {
		t.Fatalf("the same answer to an unfair method counted as %q", a.fail)
	}
}

// TestMetricszDeltasMergeAcrossNodes scrapes two fake nodes before and after
// a phase and checks that the per-phase deltas are summed over the fleet.
func TestMetricszDeltasMergeAcrossNodes(t *testing.T) {
	var mu sync.Mutex
	hits := []float64{10, 100}
	misses := []float64{5, 50}
	newNode := func(i int) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(w, "# HELP manirank_cache_hits_total x\n# TYPE manirank_cache_hits_total counter\n")
			fmt.Fprintf(w, "%s %v\n%s %v\n", hitsResult, hits[i], missesResult, misses[i])
			fmt.Fprintf(w, "%s %v\n%s 1\n", peerHitsResult, hits[i]/10, matrixBuilds)
		}))
	}
	a, b := newNode(0), newNode(1)
	defer a.Close()
	defer b.Close()
	urls := []string{a.URL, b.URL}
	c := &http.Client{}
	before, err := scrape(c, urls)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	hits[0], misses[0] = 40, 15  // +30 hits, +10 misses
	hits[1], misses[1] = 120, 70 // +20 hits, +20 misses
	mu.Unlock()
	after, err := scrape(c, urls)
	if err != nil {
		t.Fatal(err)
	}
	d := deltaSum(before, after)
	if d[hitsResult] != 50 || d[missesResult] != 30 || d[matrixBuilds] != 0 {
		t.Fatalf("deltas = hits %v misses %v builds %v; want 50, 30, 0", d[hitsResult], d[missesResult], d[matrixBuilds])
	}
	o := newOutcome()
	cacheLayer(o, d)
	if got := o.layer["cache.result_hit_rate"]; got != 50.0/80 {
		t.Errorf("result hit rate %v, want %v", got, 50.0/80)
	}
	if got := o.layer["fleet.peer_hit_rate"]; got != 1 {
		t.Errorf("peer hit rate %v, want 1 (5 peer hits, no peer misses or errors)", got)
	}
}

func TestWindowRateIsTheMedianSecond(t *testing.T) {
	p := &phaseStats{Seconds: 5.2}
	for s, n := range []int{100, 100, 10, 100, 100} {
		for i := 0; i < n; i++ {
			p.record(answer{}, 1, float64(s)+float64(i)/float64(n+1))
		}
	}
	if got := windowRate(p); got != 100 {
		t.Fatalf("windowRate = %v, want 100 (one slow second must not move it)", got)
	}
}

// TestClosedLoopChargesEachRequestItsCPU checks that with one connection a
// request that computes is charged its CPU time and one that only waits is
// not, so the CPU metrics follow work done rather than time passed.
func TestClosedLoopChargesEachRequestItsCPU(t *testing.T) {
	const busy = 20 * time.Millisecond
	ps := closedLoop("test", 1, 0, 4, func(c, k int) answer {
		if k%2 == 0 {
			for c0 := cpuTime(); cpuTime()-c0 < busy; {
			}
		} else {
			time.Sleep(busy)
		}
		return answer{}
	})
	if len(ps.cpuMS) != 4 {
		t.Fatalf("%d CPU samples, want 4", len(ps.cpuMS))
	}
	for k, ms := range ps.cpuMS {
		if k%2 == 0 && ms < msOf(busy) {
			t.Errorf("computing request %d charged %.2f ms, want >= %.0f", k, ms, msOf(busy))
		}
		if k%2 == 1 && ms > msOf(busy)/4 {
			t.Errorf("waiting request %d charged %.2f ms of CPU", k, ms)
		}
	}
	if r := cpuRate(&ps); r <= 0 || r > 4/(2*busy.Seconds()) {
		t.Errorf("cpuRate = %v answers per CPU-second; want at most %v", r, 4/(2*busy.Seconds()))
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
