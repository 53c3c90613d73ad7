package service

import (
	"bytes"
	"encoding/json"
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
