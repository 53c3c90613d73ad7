package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// promLine is the exposition grammar smoke_serve.sh enforces on /metricsz.
var promLine = regexp.MustCompile(`^[a-z_]+(\{[^}]*\})? [0-9.e+-]+$|^#`)

// scrapeMetrics fetches /metricsz and returns every sample keyed by its
// full series string (name plus label block), asserting the text format
// line by line.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metricsz status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metricsz content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if !promLine.MatchString(line) {
			t.Fatalf("/metricsz line fails exposition grammar: %q", line)
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndex(line, " ")
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	return samples
}

// TestMetricszStatzCrossCheck is the one-source-of-truth contract: /statz
// and /metricsz must agree because they read the same registry structs —
// every former /statz counter appears in the exposition with the same
// value.
func TestMetricszStatzCrossCheck(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := testRequest("kemeny", 31)
	if status, _ := post(t, ts.URL, req); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if status, out := post(t, ts.URL, req); status != http.StatusOK || !out.Cached {
		t.Fatalf("repeat not served from cache (status %d)", status)
	}
	// A second method over the same profile exercises the matrix tier's
	// builds-skipped axis.
	req2 := testRequest("borda", 31)
	if status, _ := post(t, ts.URL, req2); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	// Session traffic so the PR 9 series cross-check covers live counters,
	// not just pre-registered zeros. The session stays open: the active
	// gauge must agree while non-zero.
	status, created := createSession(t, ts.URL, testRequest("borda", 33))
	if status != http.StatusOK {
		t.Fatalf("session create: status %d", status)
	}
	if status, _ := postOp(t, ts.URL, created.SessionID, &SessionOp{Op: "solve"}); status != http.StatusOK {
		t.Fatalf("session solve: status %d", status)
	}

	var st Statz
	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	m := scrapeMetrics(t, ts.URL)

	checks := map[string]float64{
		`manirank_requests_total{status="200"}`:           float64(st.Requests["200"]),
		`manirank_cache_hits_total{tier="result"}`:        float64(st.Cache.Hits),
		`manirank_cache_misses_total{tier="result"}`:      float64(st.Cache.Misses),
		`manirank_cache_coalesced_total{tier="result"}`:   float64(st.Cache.Coalesced),
		`manirank_cache_evictions_total{tier="result"}`:   float64(st.Cache.Evictions),
		`manirank_cache_disk_hits_total{tier="result"}`:   float64(st.Cache.DiskHits),
		`manirank_cache_disk_puts_total{tier="result"}`:   float64(st.Cache.DiskPuts),
		`manirank_cache_disk_errors_total{tier="result"}`: float64(st.Cache.DiskErrors),
		`manirank_cache_hits_total{tier="matrix"}`:        float64(st.Matrix.Hits),
		`manirank_cache_misses_total{tier="matrix"}`:      float64(st.Matrix.Misses),
		"manirank_matrix_builds_total":                    float64(st.Matrix.Builds),
		"manirank_matrix_builds_skipped_total":            float64(st.Matrix.BuildsSkipped),
		"manirank_matrix_rejected_total":                  float64(st.Matrix.Rejected),
		"manirank_queue_capacity":                         float64(st.Queue.Capacity),
		"manirank_workers":                                float64(st.Queue.Workers),
		`manirank_cache_entries{tier="result"}`:           float64(st.Cache.Entries),
		`manirank_cache_entries{tier="matrix"}`:           float64(st.Matrix.Entries),
		`manirank_cache_peer_hits_total{tier="result"}`:   float64(st.Cache.PeerHits),
		`manirank_cache_peer_misses_total{tier="result"}`: float64(st.Cache.PeerMisses),
		`manirank_cache_peer_errors_total{tier="result"}`: float64(st.Cache.PeerErrors),
		`manirank_cache_peer_hits_total{tier="matrix"}`:   float64(st.Matrix.PeerHits),
		`manirank_cache_peer_misses_total{tier="matrix"}`: float64(st.Matrix.PeerMisses),
		`manirank_cache_peer_errors_total{tier="matrix"}`: float64(st.Matrix.PeerErrors),
		"manirank_sessions_active":                        float64(st.Sessions.Active),
	}
	// The session op family: /metricsz exposes every pre-registered op
	// (zeros included); /statz omits ops with no traffic, which a zero map
	// read reproduces exactly.
	for _, op := range sessionOpNames {
		checks[`manirank_session_ops_total{op="`+op+`"}`] = float64(st.Sessions.Ops[op])
	}
	for series, want := range checks {
		got, ok := m[series]
		if !ok {
			t.Fatalf("/metricsz missing series %s", series)
		}
		if got != want {
			t.Fatalf("%s = %v, /statz says %v", series, got, want)
		}
	}
	if st.Cache.Hits == 0 || st.Matrix.BuildsSkipped == 0 {
		t.Fatalf("workload did not exercise both tiers: %+v / %+v", st.Cache, st.Matrix)
	}
	if st.Sessions.Active != 1 || st.Sessions.Ops["create"] == 0 || st.Sessions.Ops["solve"] == 0 {
		t.Fatalf("session traffic not recorded: %+v", st.Sessions)
	}
	// Histograms: count of solved requests must match the /statz latency
	// count, and hit rates must agree within float rendering.
	if got := m[`manirank_request_seconds_count{outcome="solve"}`]; got != float64(st.LatencySolve.Count) {
		t.Fatalf("solve histogram count %v, /statz %d", got, st.LatencySolve.Count)
	}
	if got := m[`manirank_request_seconds_count{outcome="hit"}`]; got != float64(st.LatencyHit.Count) {
		t.Fatalf("hit histogram count %v, /statz %d", got, st.LatencyHit.Count)
	}
	if got := m[`manirank_cache_hit_rate{tier="result"}`]; got < st.CacheHitRate-1e-9 || got > st.CacheHitRate+1e-9 {
		t.Fatalf("hit rate %v, /statz %v", got, st.CacheHitRate)
	}
	// The per-method solve family must be bounded to the registry's method
	// set — pre-registered, not grown per request string.
	for series := range m {
		if strings.HasPrefix(series, "manirank_solve_seconds_count") {
			found := false
			for _, name := range Methods {
				if strings.Contains(series, `method="`+name+`"`) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("unexpected per-method series %s", series)
			}
		}
	}
	// Che model gauges exist per tier and stay in [0, 1].
	for _, tier := range []string{"result", "matrix"} {
		series := fmt.Sprintf(`manirank_cache_hit_rate_predicted{tier=%q}`, tier)
		p, ok := m[series]
		if !ok {
			t.Fatalf("/metricsz missing %s", series)
		}
		if p < 0 || p > 1 {
			t.Fatalf("%s = %v out of [0,1]", series, p)
		}
	}
}

// requestStages are the disjoint request-level stage spans: they must not
// overlap each other (solver child spans nest inside solve and are
// excluded), so their sum is comparable to the request wall time.
var requestStages = map[string]bool{
	"queue": true, "result_lookup": true, "result_wait": true,
	"result_disk_read": true, "result_disk_write": true,
	"matrix_lookup": true, "matrix_wait": true, "matrix_build": true,
	"matrix_disk_read": true, "matrix_disk_write": true,
	"result_peer_read": true, "matrix_peer_read": true,
	"solve": true, "encode": true,
}

// TestTracezSlowRequest: a deadline-truncated solve shows up in the
// slowest-N list with queue and solve spans whose disjoint stage sum is
// within tolerance of the recorded wall time, and the slow-request log
// fires with the span breakdown.
func TestTracezSlowRequest(t *testing.T) {
	var logBuf bytes.Buffer
	cfg := Config{
		TraceSlow: 50 * time.Millisecond,
		Logger:    slog.New(slog.NewTextHandler(&logBuf, nil)),
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	req := testRequest("kemeny", 77)
	req.Options.Perturbations = 2_000_000 // far beyond the deadline: best-so-far on expiry
	req.DeadlineMillis = 250
	status, out := post(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if !out.Partial {
		t.Fatal("expected a deadline-truncated (partial) result")
	}

	resp, err := http.Get(ts.URL + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tz Tracez
	if err := json.NewDecoder(resp.Body).Decode(&tz); err != nil {
		t.Fatal(err)
	}
	if len(tz.Recent) == 0 || len(tz.Slowest) == 0 {
		t.Fatalf("tracez empty: %d recent, %d slowest", len(tz.Recent), len(tz.Slowest))
	}
	slow := tz.Slowest[0]
	if slow.WallMS < 200 {
		t.Fatalf("slowest trace wall %v ms, want >= 200", slow.WallMS)
	}
	if slow.Name != "kemeny" {
		t.Fatalf("slowest trace method %q", slow.Name)
	}
	seen := map[string]bool{}
	sum := 0.0
	for _, sp := range slow.Spans {
		if requestStages[sp.Name] {
			seen[sp.Name] = true
			sum += sp.DurationMS
		}
	}
	for _, stage := range []string{"queue", "result_lookup", "solve", "encode"} {
		if !seen[stage] {
			t.Fatalf("slow trace missing %q span; spans: %+v", stage, slow.Spans)
		}
	}
	// The disjoint stages cover the request end to end: their sum must be
	// within tolerance of the wall time (the gap is handler bookkeeping
	// between spans; overlap would push the sum past the wall).
	if sum < 0.7*slow.WallMS || sum > 1.15*slow.WallMS {
		t.Fatalf("stage spans sum to %.2f ms vs wall %.2f ms", sum, slow.WallMS)
	}
	if !strings.Contains(logBuf.String(), "slow request") {
		t.Fatal("slow-request log line missing")
	}
	if !strings.Contains(logBuf.String(), "solve=") {
		t.Fatalf("slow-request log missing span breakdown: %s", logBuf.String())
	}
}
