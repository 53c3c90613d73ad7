package service

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
)

// contractTraffic drives both cache tiers and the session surface: a solve,
// its result-tier hit, a second method over the same profile (a matrix-tier
// hit), and a session create + solve.
func contractTraffic(t *testing.T, url string) {
	t.Helper()
	for _, req := range []*AggregateRequest{testRequest("kemeny", 31), testRequest("kemeny", 31), testRequest("borda", 31)} {
		if status, _ := post(t, url, req); status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
	}
	status, created := createSession(t, url, testRequest("borda", 33))
	if status != http.StatusOK {
		t.Fatalf("session create: status %d", status)
	}
	if status, _ := postOp(t, url, created.SessionID, &SessionOp{Op: "solve"}); status != http.StatusOK {
		t.Fatalf("session solve: status %d", status)
	}
}

// jsonKeyPaths appends every object key path in v ("cache.hits",
// "latency_solve_by_method.kemeny.p50_ms", …) to out.
func jsonKeyPaths(v any, prefix string, out []string) []string {
	obj, ok := v.(map[string]any)
	if !ok {
		return out
	}
	for k, child := range obj {
		p := k
		if prefix != "" {
			p = prefix + "." + k
		}
		out = append(out, p)
		out = jsonKeyPaths(child, p, out)
	}
	return out
}

// checkGolden compares got, one entry per line, with testdata/name.
func checkGolden(t *testing.T, name string, got []string) {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	have := map[string]bool{}
	for _, g := range got {
		have[g] = true
	}
	pinned := map[string]bool{}
	for _, w := range want {
		pinned[w] = true
		if !have[w] {
			t.Errorf("%s: missing %s", name, w)
		}
	}
	for _, g := range got {
		if !pinned[g] {
			t.Errorf("%s: unexpected %s", name, g)
		}
	}
}

// TestTelemetryContract pins the observable telemetry surface after traffic
// on both cache tiers: the sorted set of /metricsz series (names plus
// labels; perfbench and loadgen scrape them by name) and the set of /statz
// JSON key paths (loadgen decodes them). Both goldens were recorded from the
// two-implementation cache tiers; a refactor must leave them untouched.
func TestTelemetryContract(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheDir: t.TempDir(), DiskBudgetBytes: 1 << 30})
	contractTraffic(t, ts.URL)

	series := make([]string, 0, 512)
	for s := range scrapeMetrics(t, ts.URL) {
		series = append(series, s)
	}
	sort.Strings(series)
	checkGolden(t, "metricsz_series.golden", series)

	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var statz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&statz); err != nil {
		t.Fatal(err)
	}
	keys := jsonKeyPaths(statz, "", nil)
	sort.Strings(keys)
	checkGolden(t, "statz_keys.golden", keys)
}
