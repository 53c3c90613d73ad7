package service

import (
	"net/http"
	"strconv"
	"time"

	"manirank/internal/obs"
)

// handleStatz serves /statz, a JSON view of the registry /metricsz
// renders as Prometheus text: every number is a registered series read
// through obs.Registry.Value or one of the server's registry histograms.
// Status codes, session ops and peer counters appear once non-zero, and the
// fleet section only on a fleet node.
func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	v := s.reg.Value
	requests := map[string]float64{}
	for _, code := range knownStatuses {
		if n := v("manirank_requests_total", obs.L("status", strconv.Itoa(code))); n > 0 {
			requests[strconv.Itoa(code)] = n
		}
	}
	if n := v("manirank_requests_total", obs.L("status", "other")); n > 0 {
		requests["other"] = n
	}
	ops := map[string]float64{}
	for _, op := range sessionOpNames {
		if n := v("manirank_session_ops_total", obs.L("op", op)); n > 0 {
			ops[op] = n
		}
	}
	byMethod := map[string]LatencySnapshot{}
	for m, h := range s.methodHist {
		if h.Count() > 0 {
			byMethod[m] = latencySnapshot(h)
		}
	}
	result := s.tierStatz("result")
	result["policy"] = "lru"
	matrix := s.tierStatz("matrix")
	matrix["cost_used"] = v("manirank_cache_cost_used", obs.L("tier", "matrix"))
	matrix["cost_budget"] = v("manirank_cache_cost_budget", obs.L("tier", "matrix"))
	matrix["builds"] = v("manirank_matrix_builds_total")
	matrix["builds_skipped"] = v("manirank_matrix_builds_skipped_total")
	matrix["rejected"] = v("manirank_matrix_rejected_total")
	st := map[string]any{
		"uptime_s": v("manirank_uptime_seconds"),
		"queue": map[string]float64{
			"depth":     v("manirank_queue_depth"),
			"capacity":  v("manirank_queue_capacity"),
			"in_flight": v("manirank_in_flight"),
			"workers":   v("manirank_workers"),
		},
		"cache":                   result,
		"cache_hit_rate":          v("manirank_cache_hit_rate", obs.L("tier", "result")),
		"precedence_cache":        matrix,
		"precedence_hit_rate":     v("manirank_cache_hit_rate", obs.L("tier", "matrix")),
		"requests_by_status":      requests,
		"latency_solve":           latencySnapshot(s.histSolve),
		"latency_hit":             latencySnapshot(s.histHit),
		"latency_solve_by_method": byMethod,
		"sessions":                map[string]any{"active": v("manirank_sessions_active"), "ops": ops},
	}
	if f := s.fleet; f != nil {
		st["fleet"] = map[string]any{
			"self":  f.Self(),
			"epoch": v("manirank_fleet_epoch"),
			"nodes": v("manirank_fleet_nodes"),
			"alive": v("manirank_fleet_alive_nodes"),
			"peers": f.PeerStatuses(),
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// tierStatz is the /statz section both cache tiers share, read from the
// manirank_cache_* series under the tier's label.
func (s *Server) tierStatz(tier string) map[string]any {
	l := obs.L("tier", tier)
	v := func(name string) float64 { return s.reg.Value(name, l) }
	sec := map[string]any{
		"hits":        v("manirank_cache_hits_total"),
		"misses":      v("manirank_cache_misses_total"),
		"coalesced":   v("manirank_cache_coalesced_total"),
		"evictions":   v("manirank_cache_evictions_total"),
		"disk_hits":   v("manirank_cache_disk_hits_total"),
		"disk_puts":   v("manirank_cache_disk_puts_total"),
		"disk_errors": v("manirank_cache_disk_errors_total"),
		"entries":     v("manirank_cache_entries"),
		"in_flight":   v("manirank_cache_in_flight"),
	}
	for _, k := range []string{"peer_hits", "peer_misses", "peer_errors"} {
		if n := v("manirank_cache_" + k + "_total"); n > 0 {
			sec[k] = n
		}
	}
	return sec
}

// LatencySnapshot summarises one latency histogram for /statz, in
// milliseconds. Until PR 8 these numbers came from fixed 1024-slot rings
// whose percentiles scanned zero-valued unfilled slots (skewing p50 low
// before the ring filled); they now come from obs.Histogram, which has no
// window to fill — an empty histogram reports count 0 and zeros — and
// whose quantiles interpolate log-spaced buckets (at most one bucket,
// i.e. 2x, of error). The JSON shape is unchanged.
type LatencySnapshot struct {
	// Count is the number of observations.
	Count uint64 `json:"count"`
	// P50 is the estimated median latency.
	P50 float64 `json:"p50_ms"`
	// P99 is the estimated 99th-percentile latency.
	P99 float64 `json:"p99_ms"`
	// Max is the largest latency observed.
	Max float64 `json:"max_ms"`
}

// latencySnapshot renders a histogram (observed in seconds) as the /statz
// millisecond summary.
func latencySnapshot(h *obs.Histogram) LatencySnapshot {
	const ms = 1000
	return LatencySnapshot{
		Count: h.Count(),
		P50:   h.Quantile(0.5) * ms,
		P99:   h.Quantile(0.99) * ms,
		Max:   h.Max() * ms,
	}
}

// observeSeconds records a duration on h in seconds (the exposition unit).
func observeSeconds(h *obs.Histogram, d time.Duration) {
	h.Observe(d.Seconds())
}
