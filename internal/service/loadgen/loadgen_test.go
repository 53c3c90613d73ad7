package loadgen

import (
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"manirank/internal/service"
)

// Canned node bodies in manirankd's /statz and /metricsz formats. Node A
// and node B differ in every merged column, and their solve-stage
// histograms have very different observation counts, so an unweighted mean
// of per-node means would be visibly wrong.
const (
	statzA = `{"uptime_s":12.5,
 "queue":{"depth":0,"capacity":64,"in_flight":0,"workers":4},
 "cache":{"policy":"clock","hits":30,"misses":20,"coalesced":2,"evictions":5,"expirations":1,
  "disk_hits":3,"disk_puts":17,"disk_errors":0,"peer_hits":4,"peer_misses":6,"peer_errors":1,
  "entries":12,"in_flight":0},
 "cache_hit_rate":0.6,
 "precedence_cache":{"hits":10,"misses":10,"coalesced":1,"builds":7,"builds_skipped":13,
  "evictions":0,"rejected":0,"disk_hits":1,"disk_puts":7,"disk_errors":0,"peer_hits":2,
  "peer_errors":1,"entries":5,"cost_used":2000,"cost_budget":100000,"in_flight":0},
 "precedence_hit_rate":0.5,
 "requests_by_status":{"200":50},
 "latency_solve":{"count":20,"p50_ms":40,"p99_ms":90,"max_ms":95},
 "latency_hit":{"count":30,"p50_ms":0.4,"p99_ms":1,"max_ms":2},
 "latency_solve_by_method":{"fair-kemeny":{"count":20,"p50_ms":38,"p99_ms":88,"max_ms":93}},
 "sessions":{"active":0,"ops":{}},
 "fleet":{"self":"http://a","epoch":1,"nodes":2,"alive":2,"peers":[]}}`
	statzB = `{"uptime_s":12.4,
 "queue":{"depth":0,"capacity":64,"in_flight":0,"workers":4},
 "cache":{"policy":"clock","hits":10,"misses":30,"coalesced":0,"evictions":9,"expirations":0,
  "disk_hits":2,"disk_puts":28,"disk_errors":0,"peer_hits":5,"peer_misses":3,"peer_errors":2,
  "entries":12,"in_flight":0},
 "cache_hit_rate":0.25,
 "precedence_cache":{"hits":5,"misses":15,"coalesced":0,"builds":4,"builds_skipped":9,
  "evictions":2,"rejected":1,"disk_hits":0,"disk_puts":4,"disk_errors":0,"peer_hits":6,
  "peer_misses":1,"entries":4,"cost_used":1600,"cost_budget":100000,"in_flight":0},
 "precedence_hit_rate":0.25,
 "requests_by_status":{"200":40},
 "latency_solve":{"count":30,"p50_ms":30,"p99_ms":80,"max_ms":85},
 "latency_hit":{"count":10,"p50_ms":0.5,"p99_ms":1,"max_ms":2},
 "latency_solve_by_method":{"fair-kemeny":{"count":30,"p50_ms":29,"p99_ms":79,"max_ms":84}},
 "sessions":{"active":0,"ops":{}},
 "fleet":{"self":"http://b","epoch":1,"nodes":2,"alive":2,"peers":[]}}`

	metricsA = `# HELP manirank_cache_hit_rate_predicted Che-approximation hit rate per tier
# TYPE manirank_cache_hit_rate_predicted gauge
manirank_cache_hit_rate_predicted{tier="matrix"} 0.2
manirank_cache_hit_rate_predicted{tier="result"} 0.5
# HELP manirank_stage_seconds per-stage request time from trace spans
# TYPE manirank_stage_seconds histogram
manirank_stage_seconds_bucket{stage="solve",le="0.1"} 10
manirank_stage_seconds_bucket{stage="solve",le="+Inf"} 10
manirank_stage_seconds_sum{stage="solve"} 2
manirank_stage_seconds_count{stage="solve"} 10
manirank_stage_seconds_bucket{stage="queue",le="0.1"} 0
manirank_stage_seconds_bucket{stage="queue",le="+Inf"} 0
manirank_stage_seconds_sum{stage="queue"} 0
manirank_stage_seconds_count{stage="queue"} 0
`
	metricsB = `# HELP manirank_cache_hit_rate_predicted Che-approximation hit rate per tier
# TYPE manirank_cache_hit_rate_predicted gauge
manirank_cache_hit_rate_predicted{tier="matrix"} 0.4
manirank_cache_hit_rate_predicted{tier="result"} 0.7
# HELP manirank_stage_seconds per-stage request time from trace spans
# TYPE manirank_stage_seconds histogram
manirank_stage_seconds_bucket{stage="solve",le="0.1"} 30
manirank_stage_seconds_bucket{stage="solve",le="+Inf"} 30
manirank_stage_seconds_sum{stage="solve"} 1
manirank_stage_seconds_count{stage="solve"} 30
manirank_stage_seconds_bucket{stage="queue",le="0.1"} 4
manirank_stage_seconds_bucket{stage="queue",le="+Inf"} 4
manirank_stage_seconds_sum{stage="queue"} 0.02
manirank_stage_seconds_count{stage="queue"} 4
`
)

// cannedNode serves one node's /statz and /metricsz bodies.
func cannedNode(t *testing.T, statz, metrics string) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/statz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(statz))
	})
	mux.HandleFunc("/metricsz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write([]byte(metrics))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestCollectResultMergesFleet checks the end-of-run scrape merge every
// BENCH serving number rests on: per-tier counters summed across nodes,
// stage means weighted by observations (not averaged per node), the Che
// prediction averaged across nodes, and one per-node row per replica.
func TestCollectResultMergesFleet(t *testing.T) {
	a, b := cannedNode(t, statzA, metricsA), cannedNode(t, statzB, metricsB)
	cfg := Config{URLs: []string{a, b}, Methods: []string{"fair-kemeny"}}.withDefaults()
	// 8 client-observed successes, 2 of them cache hits.
	lat := []float64{5, 1, 2, 8, 3, 4, 7, 6}
	res, err := collectResult(cfg, 10, 1, 1, 2, 1, lat, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	if res.Policy != "clock" {
		t.Errorf("Policy = %q, want clock", res.Policy)
	}
	sums := map[string][2]uint64{
		"MatrixBuilds":        {res.MatrixBuilds, 7 + 4},
		"MatrixBuildsSkipped": {res.MatrixBuildsSkipped, 13 + 9},
		"ResultDiskHits":      {res.ResultDiskHits, 3 + 2},
		"MatrixDiskHits":      {res.MatrixDiskHits, 1 + 0},
		"ResultPeerHits":      {res.ResultPeerHits, 4 + 5},
		"MatrixPeerHits":      {res.MatrixPeerHits, 2 + 6},
		"PeerErrors":          {res.PeerErrors, 1 + 1 + 2 + 0},
	}
	for name, gw := range sums {
		if gw[0] != gw[1] {
			t.Errorf("%s = %d, want %d", name, gw[0], gw[1])
		}
	}
	if want := 15.0 / 40; !near(res.MatrixHitRate, want) {
		t.Errorf("MatrixHitRate = %v, want %v (summed hits over summed lookups)", res.MatrixHitRate, want)
	}
	// Solve: (2 s + 1 s) over 40 observations = 75 ms, not the 116.7 ms a
	// per-node mean of means would give. Queue: only node B observed it.
	if got := res.StageMeanMS["solve"]; !near(got, 75) {
		t.Errorf("solve stage mean = %v ms, want 75", got)
	}
	if got := res.StageMeanMS["queue"]; !near(got, 5) {
		t.Errorf("queue stage mean = %v ms, want 5", got)
	}
	if len(res.StageMeanMS) != 2 {
		t.Errorf("StageMeanMS = %v, want exactly the solve and queue stages", res.StageMeanMS)
	}
	if !near(res.HitRate, 0.25) || !near(res.PredictedHitRate, 0.6) || !near(res.HitRateDrift, 0.25-0.6) {
		t.Errorf("result tier: hit %v pred %v drift %v, want 0.25 / 0.6 / -0.35",
			res.HitRate, res.PredictedHitRate, res.HitRateDrift)
	}
	if !near(res.MatrixPredictedHitRate, 0.3) || !near(res.MatrixHitRateDrift, 15.0/40-0.3) {
		t.Errorf("matrix tier: pred %v drift %v, want 0.3 / %v",
			res.MatrixPredictedHitRate, res.MatrixHitRateDrift, 15.0/40-0.3)
	}
	if res.P50LatencyMS != 4 || res.P99LatencyMS != 7 {
		t.Errorf("latency p50/p99 = %v/%v, want 4/7", res.P50LatencyMS, res.P99LatencyMS)
	}
	if !near(res.Throughput, (8.0+1)/2) {
		t.Errorf("Throughput = %v, want 4.5", res.Throughput)
	}

	// Float variables, not constants, so the drifts round as at run time.
	hitA, predA, hitB, predB := 0.6, 0.5, 0.25, 0.7
	wantNodes := []NodeResult{
		{URL: a, HitRate: hitA, PredictedHitRate: predA, HitRateDrift: hitA - predA, MatrixBuilds: 7,
			ResultPeerHits: 4, ResultPeerMisses: 6, MatrixPeerHits: 2, PeerErrors: 2},
		{URL: b, HitRate: hitB, PredictedHitRate: predB, HitRateDrift: hitB - predB, MatrixBuilds: 4,
			ResultPeerHits: 5, ResultPeerMisses: 3, MatrixPeerHits: 6, PeerErrors: 2},
	}
	if !reflect.DeepEqual(res.Nodes, wantNodes) {
		t.Errorf("Nodes = %+v\nwant    %+v", res.Nodes, wantNodes)
	}
}

// TestCollectResultSingleNode: a one-URL run reports the node's own
// columns and no per-node rows.
func TestCollectResultSingleNode(t *testing.T) {
	a := cannedNode(t, statzA, metricsA)
	cfg := Config{URL: a}.withDefaults()
	res, err := collectResult(cfg, 4, 0, 0, 1, 0, []float64{1, 2, 3, 4}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != nil {
		t.Errorf("single-node run has per-node rows: %+v", res.Nodes)
	}
	if res.MatrixBuilds != 7 || res.ResultPeerHits != 4 || !near(res.PredictedHitRate, 0.5) {
		t.Errorf("single-node columns = builds %d peer hits %d pred %v, want 7 / 4 / 0.5",
			res.MatrixBuilds, res.ResultPeerHits, res.PredictedHitRate)
	}
	if got := res.StageMeanMS["solve"]; !near(got, 200) {
		t.Errorf("solve stage mean = %v ms, want 200", got)
	}
}

// TestCollectResultFailsLoudly: a node that cannot be scraped fails the
// collection instead of recording zeroed bench columns.
func TestCollectResultFailsLoudly(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	defer ts.Close()
	cfg := Config{URL: ts.URL}.withDefaults()
	if _, err := collectResult(cfg, 1, 0, 0, 0, 0, []float64{1}, time.Second); err == nil {
		t.Fatal("collectResult succeeded against a node without /statz")
	}
}

// TestRunAgainstServer drives Run against a real in-process manirankd: every
// request succeeds and is accounted for, and after each distinct
// (profile, method) body has been solved once, every repeat is a cache hit
// or rides a concurrent flight.
func TestRunAgainstServer(t *testing.T) {
	srv, err := service.New(service.Config{Workers: 2, SolverWorkers: 1,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := Config{URL: ts.URL, Candidates: 12, Rankers: 6, Profiles: 4,
		Methods: []string{"borda", "fair-borda"}, Clients: 3, Requests: 24, Seed: 3}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Rejected != 0 {
		t.Fatalf("errors %d, rejected %d; want none", res.Errors, res.Rejected)
	}
	ok := int(math.Round(res.Throughput * res.DurationS))
	if res.Requests != cfg.Requests || ok != cfg.Requests {
		t.Fatalf("requests %d, successes %d; want %d of each", res.Requests, ok, cfg.Requests)
	}
	hits := int(math.Round(res.HitRate * float64(ok)))
	if floor := cfg.Requests - cfg.Profiles*len(cfg.Methods); hits+res.Coalesced < floor {
		t.Fatalf("hits %d + coalesced %d < %d repeats of already-seen bodies", hits, res.Coalesced, floor)
	}
}

// TestRunSplitsRejectionsFromErrors: a node answering 429 and 500
// alternately has every 429 counted as a rejection and every 500 as an
// error, with no successes.
func TestRunSplitsRejectionsFromErrors(t *testing.T) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/aggregate", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if calls.Add(1)%2 == 0 {
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	mux.HandleFunc("/statz", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte(statzA)) })
	mux.HandleFunc("/metricsz", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte(metricsA)) })
	ts := httptest.NewServer(mux)
	defer ts.Close()

	res, err := Run(Config{URL: ts.URL, Candidates: 8, Rankers: 3, Profiles: 2, Clients: 2, Requests: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 10 || res.Rejected != 5 || res.Errors != 5 {
		t.Fatalf("requests %d, rejected %d, errors %d; want 10 / 5 / 5", res.Requests, res.Rejected, res.Errors)
	}
	if res.HitRate != 0 || res.P50LatencyMS != 0 {
		t.Fatalf("failed requests leaked into the latency columns: hit rate %v, p50 %v", res.HitRate, res.P50LatencyMS)
	}
}
