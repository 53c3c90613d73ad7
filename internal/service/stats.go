package service

import (
	"encoding/json"
	"time"

	"manirank/internal/obs"
	"manirank/internal/service/cache"
)

// TierStatz is one cache tier's /statz section: the tier's Stats under the
// key set that section has always reported. Both tiers share one Stats
// type, so each section names the keys it never carried — the result
// tier's build and cost accounting, the matrix tier's policy — and
// rendering drops them.
type TierStatz struct {
	cache.Stats
	omit []string
}

// Key sets dropped from each tier's /statz section.
var (
	resultStatzOmit = []string{"builds", "builds_skipped", "rejected", "cost_used", "cost_budget"}
	matrixStatzOmit = []string{"policy"}
)

// MarshalJSON renders the Stats without the omitted keys.
func (t TierStatz) MarshalJSON() ([]byte, error) {
	data, err := json.Marshal(t.Stats)
	if err != nil || len(t.omit) == 0 {
		return data, err
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		return nil, err
	}
	for _, k := range t.omit {
		delete(fields, k)
	}
	return json.Marshal(fields)
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
