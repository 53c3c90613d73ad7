package service

import (
	"net/http"
	"sync"
	"testing"

	"manirank/internal/obs"
)

// TestPrecedenceTierSharedAcrossMethods is the tentpole contract: a second
// method over an already-seen profile must skip the O(n²·m) matrix
// construction — one build, one skip, visible in /statz.
func TestPrecedenceTierSharedAcrossMethods(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := testRequest("copeland", 21)
	if status, _ := post(t, ts.URL, req); status != http.StatusOK {
		t.Fatalf("first method: status %d", status)
	}
	req.Method = "schulze" // same profile, different request digest
	if status, out := post(t, ts.URL, req); status != http.StatusOK || out.Cached {
		t.Fatalf("second method: status %d cached %v, want a fresh solve", status, out != nil && out.Cached)
	}
	ms, cs := s.prec.Stats(), s.cache.Stats()
	if ms.Builds != 1 {
		t.Fatalf("matrix builds = %d, want 1 shared construction", ms.Builds)
	}
	if ms.BuildsSkipped != 1 || ms.Hits != 1 {
		t.Fatalf("matrix stats %+v, want the second method to skip the build", ms)
	}
	if cs.Hits != 0 || cs.Misses != 2 {
		t.Fatalf("result-cache stats %+v: the two methods must be distinct result entries", cs)
	}
}

// TestPrecedenceOnOffBitwiseIdentical runs every method against one server
// with the matrix tier enabled and one with it disabled (PrecCacheCells < 0)
// and requires bitwise-identical responses — ranking, PD loss, and audit.
// Caching may only change how fast an answer arrives, never the answer.
func TestPrecedenceOnOffBitwiseIdentical(t *testing.T) {
	_, on := newTestServer(t, Config{})
	_, off := newTestServer(t, Config{PrecCacheCells: -1, CacheSize: -1})
	for _, method := range Methods {
		req := testRequest(method, 22)
		// Two posts against the warm server: the second is served from the
		// shared matrix (and result cache) and must not drift either.
		post(t, on.URL, req)
		_, warm := post(t, on.URL, req)
		_, cold := post(t, off.URL, req)
		if warm == nil || cold == nil {
			t.Fatalf("%s: missing response", method)
		}
		if !warm.Ranking.Equal(cold.Ranking) {
			t.Fatalf("%s: ranking differs with precedence cache on vs off\n on: %v\noff: %v",
				method, warm.Ranking, cold.Ranking)
		}
		if warm.PDLoss != cold.PDLoss {
			t.Fatalf("%s: pd_loss %v (cached) != %v (uncached)", method, warm.PDLoss, cold.PDLoss)
		}
		if (warm.Audit == nil) != (cold.Audit == nil) {
			t.Fatalf("%s: audit presence differs", method)
		}
		if warm.Audit != nil {
			if warm.Audit.IRP != cold.Audit.IRP {
				t.Fatalf("%s: IRP %v != %v", method, warm.Audit.IRP, cold.Audit.IRP)
			}
			for k, v := range warm.Audit.ARPs {
				if cold.Audit.ARPs[k] != v {
					t.Fatalf("%s: ARP[%s] %v != %v", method, k, v, cold.Audit.ARPs[k])
				}
			}
		}
	}
}

// TestConcurrentMatrixBuildsCoalesce hammers one never-seen profile with
// four distinct methods at once (distinct result digests, so nothing
// deduplicates at the result tier) and requires exactly one matrix
// construction — the single-flight guarantee, meaningful under -race.
func TestConcurrentMatrixBuildsCoalesce(t *testing.T) {
	s, tsrv := newTestServer(t, Config{Workers: 4})
	methods := []string{"borda", "copeland", "schulze", "fair-borda"}
	var wg sync.WaitGroup
	for _, m := range methods {
		wg.Add(1)
		go func(m string) {
			defer wg.Done()
			req := testRequest(m, 23) // same seed -> same profile
			if status, _ := post(t, tsrv.URL, req); status != http.StatusOK {
				t.Errorf("%s: status %d", m, status)
			}
		}(m)
	}
	wg.Wait()
	ms := s.prec.Stats()
	if ms.Builds != 1 {
		t.Fatalf("matrix builds = %d for 4 concurrent methods over one profile, want 1", ms.Builds)
	}
	if got := ms.Hits + ms.Coalesced; got != uint64(len(methods)-1) {
		t.Fatalf("matrix hits+coalesced = %d, want %d", got, len(methods)-1)
	}
}

// TestStatzMatrixAccounting checks the /statz invariants the BENCH_4 report
// derives from: misses decompose into builds plus coalesced joins,
// builds_skipped is hits plus coalesced, and the cost gauge respects the
// budget.
func TestStatzMatrixAccounting(t *testing.T) {
	s, tsrv := newTestServer(t, Config{})
	for seed := int64(30); seed < 34; seed++ {
		for _, m := range []string{"borda", "copeland"} {
			req := testRequest(m, seed)
			if status, _ := post(t, tsrv.URL, req); status != http.StatusOK {
				t.Fatalf("seed %d %s: bad status", seed, m)
			}
		}
	}
	ms := s.prec.Stats()
	if ms.Builds != 4 || ms.Hits != 4 {
		t.Fatalf("matrix stats %+v, want 4 builds and 4 hits (2 methods x 4 profiles)", ms)
	}
	if ms.Misses != ms.Builds+ms.Coalesced {
		t.Fatalf("misses %d != builds %d + coalesced %d", ms.Misses, ms.Builds, ms.Coalesced)
	}
	if ms.BuildsSkipped != ms.Hits+ms.Coalesced {
		t.Fatalf("builds_skipped %d != hits %d + coalesced %d", ms.BuildsSkipped, ms.Hits, ms.Coalesced)
	}
	if ms.CostUsed <= 0 || ms.CostUsed > ms.CostBudget {
		t.Fatalf("cost gauge out of range: %+v", ms)
	}
	// Each 20-candidate profile costs 400 cells.
	if want := int64(4 * 20 * 20); ms.CostUsed != want {
		t.Fatalf("cost used = %d, want %d", ms.CostUsed, want)
	}
	if hr := s.reg.Value("manirank_cache_hit_rate", obs.L("tier", "matrix")); hr != ms.HitRate() {
		t.Fatalf("registry hit rate %g != stats %g", hr, ms.HitRate())
	}
}
