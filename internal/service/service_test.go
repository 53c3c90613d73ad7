package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"manirank"
	"manirank/internal/mallows"
	"manirank/internal/obs"
	"manirank/internal/ranking"
)

// newTestServer starts a Server over httptest with quiet logging.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// testRequest builds a 20-candidate request: a Mallows profile over two
// binary attributes.
func testRequest(method string, seed int64) *AggregateRequest {
	const n, m = 20, 12
	rng := rand.New(rand.NewSource(seed))
	modal := ranking.Random(n, rng)
	p := mallows.MustNew(modal, 0.5).SampleProfile(m, rng)
	profile := make([][]int, len(p))
	for i, r := range p {
		profile[i] = r
	}
	gender := make([]int, n)
	region := make([]int, n)
	for c := 0; c < n; c++ {
		gender[c] = c % 2
		region[c] = (c / 2) % 2
	}
	return &AggregateRequest{
		Method:  method,
		Profile: profile,
		Attributes: []AttributeSpec{
			{Name: "Gender", Values: []string{"M", "W"}, Of: gender},
			{Name: "Region", Values: []string{"N", "S"}, Of: region},
		},
		Delta: 0.3,
	}
}

func post(t *testing.T, url string, req *AggregateRequest) (int, *AggregateResponse) {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/aggregate", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var out AggregateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding response %s: %v", body, err)
	}
	return resp.StatusCode, &out
}

// TestAggregateAllMethods: every method serves a valid consensus over HTTP,
// fair methods satisfy their targets, and the audit is attached.
func TestAggregateAllMethods(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, method := range Methods {
		req := testRequest(method, 5)
		status, out := post(t, ts.URL, req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", method, status)
		}
		if err := out.Ranking.Validate(); err != nil {
			t.Fatalf("%s: invalid ranking: %v", method, err)
		}
		if out.Method != method || out.Partial || out.Cached {
			t.Fatalf("%s: unexpected flags %+v", method, out)
		}
		if out.Audit == nil {
			t.Fatalf("%s: no audit despite attributes", method)
		}
		if m, _ := manirank.ParseMethod(method); m.IsFair() {
			for name, arp := range out.Audit.ARPs {
				if arp > req.Delta+1e-9 {
					t.Fatalf("%s: ARP %s = %g exceeds delta %g", method, name, arp, req.Delta)
				}
			}
			if out.Audit.IRP > req.Delta+1e-9 {
				t.Fatalf("%s: IRP %g exceeds delta %g", method, out.Audit.IRP, req.Delta)
			}
		}
	}
}

// TestSecondIdenticalRequestIsCacheHit is the e2e caching contract: same
// request twice, the second is served from memory with the identical
// ranking.
func TestSecondIdenticalRequestIsCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := testRequest("fair-kemeny", 6)
	_, first := post(t, ts.URL, req)
	status, second := post(t, ts.URL, req)
	if status != http.StatusOK || !second.Cached {
		t.Fatalf("second request: status=%d cached=%v, want 200 cache hit", status, second.Cached)
	}
	if !second.Ranking.Equal(first.Ranking) {
		t.Fatal("cache returned a different ranking")
	}
	if cs := s.cache.Stats(); cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("cache stats %+v, want 1 hit / 1 miss", cs)
	}
}

// TestStatzPerMethodLatency: computed solves land in the per-method latency
// rings (one observation per miss; cache hits never touch them).
func TestStatzPerMethodLatency(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	post(t, ts.URL, testRequest("fair-borda", 6))
	post(t, ts.URL, testRequest("fair-borda", 6)) // hit: must not record
	post(t, ts.URL, testRequest("kemeny", 6))
	if got := s.methodHist["fair-borda"].Count(); got != 1 {
		t.Fatalf("fair-borda solve count = %d, want 1 (cache hits must not record)", got)
	}
	if got := s.methodHist["kemeny"].Count(); got != 1 {
		t.Fatalf("kemeny solve count = %d, want 1", got)
	}
	if got := s.methodHist["fair-copeland"].Count(); got != 0 {
		t.Fatalf("unsolved method has %d latency observations", got)
	}
}

// TestConcurrentIdenticalRequestsComputeOnce: the coalescing acceptance
// criterion, run with many goroutines (meaningful under -race). Exactly one
// request leads the flight; everyone gets the same ranking.
func TestConcurrentIdenticalRequestsComputeOnce(t *testing.T) {
	const clients = 16
	s, ts := newTestServer(t, Config{Workers: 4})
	req := testRequest("fair-kemeny", 7)
	req.Options.Perturbations = 400 // slow enough that the flight stays open
	var wg sync.WaitGroup
	outs := make([]*AggregateResponse, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, out := post(t, ts.URL, req)
			if status != http.StatusOK {
				t.Errorf("client %d: status %d", i, status)
				return
			}
			outs[i] = out
		}(i)
	}
	wg.Wait()
	leaders := 0
	for i, out := range outs {
		if out == nil {
			t.Fatalf("client %d got no response", i)
		}
		if !out.Ranking.Equal(outs[0].Ranking) {
			t.Fatalf("client %d got a different ranking", i)
		}
		if !out.Cached && !out.Coalesced {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d clients computed independently, want exactly 1", leaders)
	}
	if cs := s.cache.Stats(); cs.Coalesced+cs.Hits != clients-1 {
		t.Fatalf("stats %+v: coalesced+hits = %d, want %d", cs, cs.Coalesced+cs.Hits, clients-1)
	}
}

// TestDeadlineReturnsBestSoFarUncached: a deadline that expires mid-search
// yields HTTP 200 with a valid, feasible, partial ranking — and the partial
// result is not stored, so the next identical request recomputes.
func TestDeadlineReturnsBestSoFarUncached(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req := testRequest("fair-kemeny", 8)
	req.Options.Perturbations = 2_000_000 // runs for many seconds uncancelled
	req.DeadlineMillis = 250
	start := time.Now()
	status, out := post(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200 with best-so-far", status)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline ignored: request took %v", elapsed)
	}
	if !out.Partial {
		t.Fatal("expected a partial (deadline-truncated) result")
	}
	if err := out.Ranking.Validate(); err != nil {
		t.Fatalf("partial result invalid: %v", err)
	}
	for name, arp := range out.Audit.ARPs {
		if arp > req.Delta+1e-9 {
			t.Fatalf("partial result violates ARP %s = %g", name, arp)
		}
	}
	if _, again := post(t, ts.URL, req); again.Cached {
		t.Fatal("partial result was cached")
	}
}

// TestNegativeQueueDepthRejected: a negative queue depth, default deadline,
// max deadline or max body size is a configuration error New reports — not
// a panic from sizing the job channel, nor a server that answers every
// request 504 (or, for the body cap, 400) at once.
func TestNegativeQueueDepthRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"QueueDepth", Config{QueueDepth: -1}},
		{"DefaultDeadline", Config{DefaultDeadline: -time.Second}},
		{"MaxDeadline", Config{MaxDeadline: -time.Second}},
		{"MaxBodyBytes", Config{MaxBodyBytes: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(tc.cfg)
			if err == nil {
				s.Close()
				t.Fatalf("New accepted a negative %s", tc.name)
			}
		})
	}
}

// TestDeadlineOverflowCapped: a deadline_ms whose nanosecond count overflows
// time.Duration (9.3e12 ms wraps negative, 1<<62 ms wraps to 0) is capped at
// MaxDeadline on both the aggregate and the session path, so the request
// solves and answers 200 instead of timing out at once.
func TestDeadlineOverflowCapped(t *testing.T) {
	const maxDeadline = 10 * time.Second
	s, ts := newTestServer(t, Config{MaxDeadline: maxDeadline})
	for i, ms := range []int64{9_300_000_000_000, 1 << 62} {
		if got := s.deadline(ms); got != maxDeadline {
			t.Fatalf("deadline(%d) = %v, want the %v cap", ms, got, maxDeadline)
		}
		req := testRequest("fair-kemeny", int64(30+i))
		req.DeadlineMillis = ms
		if status, _ := post(t, ts.URL, req); status != http.StatusOK {
			t.Fatalf("aggregate with deadline_ms %d: status %d, want 200", ms, status)
		}
		sreq := testRequest("fair-kemeny", int64(40+i)) // a profile no POST built
		sreq.DeadlineMillis = ms
		status, created := createSession(t, ts.URL, sreq)
		if status != http.StatusOK {
			t.Fatalf("session create with deadline_ms %d: status %d, want 200", ms, status)
		}
		op := &SessionOp{Op: "add", Ranking: randomRow(len(sreq.Profile[0]), int64(i)), DeadlineMillis: ms}
		if status, _ := postOp(t, ts.URL, created.SessionID, op); status != http.StatusOK {
			t.Fatalf("session op with deadline_ms %d: status %d, want 200", ms, status)
		}
	}
}

// TestQueueFullBackpressure: with one busy worker and a one-slot queue, the
// third concurrent distinct request is rejected with 429, and a queued
// request whose deadline lapses before service answers 504.
func TestQueueFullBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	slow := testRequest("fair-kemeny", 9)
	slow.Options.Perturbations = 2_000_000
	slow.DeadlineMillis = 1500

	done := make(chan int, 1)
	go func() {
		status, _ := post(t, ts.URL, slow)
		done <- status
	}()
	waitFor(t, func() bool { return s.inFlight.Load() == 1 })

	queued := testRequest("fair-kemeny", 10) // distinct digest
	queued.Options.Perturbations = 2_000_000
	queued.DeadlineMillis = 300 // expires long before the worker frees up
	queuedDone := make(chan int, 1)
	go func() {
		status, _ := post(t, ts.URL, queued)
		queuedDone <- status
	}()
	waitFor(t, func() bool { return s.queued.Load() == 1 })

	rejected := testRequest("fair-kemeny", 11)
	rejected.Options.Perturbations = 2_000_000
	if status, _ := post(t, ts.URL, rejected); status != http.StatusTooManyRequests {
		t.Fatalf("third concurrent request: status %d, want 429", status)
	}
	// The queued request must answer 504 at its own 300ms deadline — while
	// the worker is still busy with the slow job — not when the worker
	// finally frees up.
	queuedStart := time.Now()
	if status := <-queuedDone; status != http.StatusGatewayTimeout {
		t.Fatalf("expired-in-queue request: status %d, want 504", status)
	}
	if waited := time.Since(queuedStart); waited > time.Second {
		t.Fatalf("queued request held for %v past its 300ms deadline", waited)
	}
	if status := <-done; status != http.StatusOK {
		t.Fatalf("slow request: status %d, want 200 (partial)", status)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := map[string]*AggregateRequest{
		"unknown method":         {Method: "banzhaf", Profile: [][]int{{0, 1}}},
		"empty profile":          {Method: "borda"},
		"not a permutation":      {Method: "borda", Profile: [][]int{{0, 0}}},
		"ragged profile":         {Method: "borda", Profile: [][]int{{0, 1}, {0, 1, 2}}},
		"fair without attrs":     {Method: "fair-borda", Profile: [][]int{{0, 1}}, Delta: 0.1},
		"fair without delta":     {Method: "fair-borda", Profile: [][]int{{0, 1}}, Attributes: []AttributeSpec{{Name: "G", Values: []string{"a", "b"}, Of: []int{0, 1}}}},
		"delta out of range":     {Method: "fair-borda", Profile: [][]int{{0, 1}}, Delta: 1.5, Attributes: []AttributeSpec{{Name: "G", Values: []string{"a", "b"}, Of: []int{0, 1}}}},
		"attr size mismatch":     {Method: "fair-borda", Profile: [][]int{{0, 1}}, Delta: 0.1, Attributes: []AttributeSpec{{Name: "G", Values: []string{"a"}, Of: []int{0, 0, 0}}}},
		"unknown threshold name": {Method: "fair-borda", Profile: [][]int{{0, 1}}, Delta: 0.1, Thresholds: map[string]float64{"Nope": 0.1}, Attributes: []AttributeSpec{{Name: "G", Values: []string{"a", "b"}, Of: []int{0, 1}}}},
		"duplicate intersection": {Method: "fair-borda", Profile: [][]int{{0, 1}}, Delta: 0.1, Thresholds: map[string]float64{"intersection": 0.1, "Intersection": 0.9}, Attributes: []AttributeSpec{{Name: "G", Values: []string{"a", "b"}, Of: []int{0, 1}}}},
		"attr threshold zero":    {Method: "fair-borda", Profile: [][]int{{0, 1}}, Delta: 0.1, Thresholds: map[string]float64{"G": 0}, Attributes: []AttributeSpec{{Name: "G", Values: []string{"a", "b"}, Of: []int{0, 1}}}},
		"intersection above 1":   {Method: "fair-borda", Profile: [][]int{{0, 1}}, Delta: 0.1, Thresholds: map[string]float64{"Intersection": 1.5}, Attributes: []AttributeSpec{{Name: "G", Values: []string{"a", "b"}, Of: []int{0, 1}}}},
		"negative intersection":  {Method: "fair-borda", Profile: [][]int{{0, 1}}, Delta: 0.1, Thresholds: map[string]float64{"intersection": -0.5}, Attributes: []AttributeSpec{{Name: "G", Values: []string{"a", "b"}, Of: []int{0, 1}}}},
	}
	for name, req := range cases {
		if status, _ := post(t, ts.URL, req); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, status)
		}
	}
}

// TestStrictJSONBodies: every JSON-bodied endpoint accepts exactly one JSON
// value. A clean body (trailing whitespace included) is served; trailing
// junk or a second object after a valid request is a 400, not a request
// whose tail is silently ignored.
func TestStrictJSONBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, err := json.Marshal(testRequest("borda", 21))
	if err != nil {
		t.Fatal(err)
	}
	status, sess := createSession(t, ts.URL, testRequest("borda", 22))
	if status != http.StatusOK {
		t.Fatalf("creating session: status %d", status)
	}
	endpoints := []struct {
		name, path string
		body       []byte
	}{
		{"aggregate", "/v1/aggregate", req},
		{"session create", "/v1/session", req},
		{"session op", "/v1/session/" + sess.SessionID, []byte(`{"op":"solve"}`)},
	}
	tails := []struct {
		name, tail string
		want       int
	}{
		{"clean body", "", http.StatusOK},
		{"trailing whitespace", " \n\t\r\n", http.StatusOK},
		{"trailing junk", " trailing junk", http.StatusBadRequest},
		{"second object", "{}", http.StatusBadRequest},
		{"second value", "\n[1]", http.StatusBadRequest},
		{"stray delimiter", "}", http.StatusBadRequest},
	}
	for _, ep := range endpoints {
		for _, tc := range tails {
			body := append(append([]byte{}, ep.body...), tc.tail...)
			resp, err := http.Post(ts.URL+ep.path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s, %s: status %d, want %d", ep.name, tc.name, resp.StatusCode, tc.want)
			}
		}
	}
}

// TestBuildProblemTargets pins the lowering of delta and thresholds onto
// the solver's targets: one per attribute in table order, then the
// intersection, each at its override or else at delta.
func TestBuildProblemTargets(t *testing.T) {
	req := testRequest("fair-kemeny", 12)
	req.Delta = 0.3
	req.Thresholds = map[string]float64{"Region": 0.05, "Intersection": 0.9}
	pb, err := buildProblem(req)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		attr  string
		delta float64
	}{{"Gender", 0.3}, {"Region", 0.05}, {pb.tab.Intersection().Name, 0.9}}
	if len(pb.targets) != len(want) {
		t.Fatalf("%d targets, want %d", len(pb.targets), len(want))
	}
	for i, w := range want {
		if tg := pb.targets[i]; tg.Attr.Name != w.attr || tg.Delta != w.delta {
			t.Errorf("target %d = (%s, %g), want (%s, %g)", i, tg.Attr.Name, tg.Delta, w.attr, w.delta)
		}
	}
	if pb.targets[2].Attr != pb.tab.Intersection() {
		t.Error("last target is not the table's intersection")
	}
}

// TestThresholdsPerAttribute: per-attribute thresholds reach the solver —
// the tight attribute's parity is enforced below the loose default.
func TestThresholdsPerAttribute(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := testRequest("fair-borda", 12)
	req.Delta = 0.8
	req.Thresholds = map[string]float64{"Gender": 0.05, "Intersection": 0.9}
	status, out := post(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if arp := out.Audit.ARPs["Gender"]; arp > 0.05+1e-9 {
		t.Fatalf("Gender ARP %g exceeds its 0.05 threshold", arp)
	}
}

func TestHealthzAndStatz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()
	post(t, ts.URL, testRequest("borda", 13))
	st := getStatz(t, ts.URL)
	for _, path := range [][]string{
		{"queue", "capacity"}, {"queue", "workers"},
		{"requests_by_status", "200"}, {"latency_solve", "count"},
	} {
		if n, _ := statzAt(st, path...).(float64); n == 0 {
			t.Errorf("statz %v = %v, want a positive number", path, statzAt(st, path...))
		}
	}
}

// TestStatzLatencyPercentiles sanity-checks the histogram-backed snapshot
// math directly: 1..100ms uniform, quantiles within one log bucket (2x) of
// truth, max exact, and — unlike the historical pre-fill ring skew — an
// empty histogram reports zeros rather than quantiles over empty slots.
func TestStatzLatencyPercentiles(t *testing.T) {
	h := obs.NewHistogram(obs.LatencyBuckets())
	if snap := latencySnapshot(h); snap.Count != 0 || snap.P50 != 0 || snap.Max != 0 {
		t.Fatalf("empty snapshot %+v, want zeros", snap)
	}
	for i := 1; i <= 100; i++ {
		observeSeconds(h, time.Duration(i)*time.Millisecond)
	}
	snap := latencySnapshot(h)
	if snap.Count != 100 || snap.P50 < 25 || snap.P50 > 100 || snap.P99 < 50 || snap.P99 > 200 || snap.Max != 100 {
		t.Fatalf("snapshot %+v out of range", snap)
	}
	if snap.P50 > snap.P99 || snap.P99 > snap.Max {
		t.Fatalf("snapshot %+v not monotone", snap)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/aggregate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET aggregate: %d, want 405", resp.StatusCode)
	}
}

// TestUnfairMethodWithoutAttributes: plain aggregators work with no table;
// the audit is simply absent.
func TestUnfairMethodWithoutAttributes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := testRequest("schulze", 14)
	req.Attributes = nil
	status, out := post(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if out.Audit != nil {
		t.Fatal("audit present without attributes")
	}
	if err := out.Ranking.Validate(); err != nil {
		t.Fatal(err)
	}
}
