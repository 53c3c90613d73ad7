package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// series maps a /metricsz sample's full series name (metric name plus label
// block, exactly as exposed) to its value.
type series map[string]float64

// parseMetrics reads Prometheus text exposition.
func parseMetrics(r io.Reader) (series, error) {
	out := series{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("malformed metricsz line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing metricsz line %q: %w", line, err)
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// scrape reads every node's /metricsz.
func scrape(c *http.Client, urls []string) ([]series, error) {
	out := make([]series, len(urls))
	for i, u := range urls {
		resp, err := c.Get(u + "/metricsz")
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", u, err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("scraping %s: status %d", u, resp.StatusCode)
		}
		s, err := parseMetrics(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", u, err)
		}
		out[i] = s
	}
	return out, nil
}

// deltaSum returns, for every series seen after, the sum over nodes of its
// change between the two scrapes: one phase's counters, merged across a
// fleet. before and after list the nodes in the same order.
func deltaSum(before, after []series) series {
	out := series{}
	for i, a := range after {
		for k, v := range a {
			out[k] += v - before[i][k]
		}
	}
	return out
}

// The series the derivations below read.
const (
	hitsResult      = `manirank_cache_hits_total{tier="result"}`
	missesResult    = `manirank_cache_misses_total{tier="result"}`
	evictResult     = `manirank_cache_evictions_total{tier="result"}`
	coalescedResult = `manirank_cache_coalesced_total{tier="result"}`
	peerHitsResult  = `manirank_cache_peer_hits_total{tier="result"}`
	peerMissResult  = `manirank_cache_peer_misses_total{tier="result"}`
	peerErrResult   = `manirank_cache_peer_errors_total{tier="result"}`
	hitsMatrix      = `manirank_cache_hits_total{tier="matrix"}`
	missesMatrix    = `manirank_cache_misses_total{tier="matrix"}`
	evictMatrix     = `manirank_cache_evictions_total{tier="matrix"}`
	coalescedMatrix = `manirank_cache_coalesced_total{tier="matrix"}`
	peerErrMatrix   = `manirank_cache_peer_errors_total{tier="matrix"}`
	matrixBuilds    = `manirank_matrix_builds_total`
	rejected429     = `manirank_requests_total{status="429"}`
	queueSum        = `manirank_stage_seconds_sum{stage="queue"}`
	queueCount      = `manirank_stage_seconds_count{stage="queue"}`
)

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cacheLayer fills the service.*, cache.* and fleet.* counters from one
// phase's merged deltas.
func cacheLayer(o *outcome, d series) {
	o.layer["service.rejected"] = d[rejected429]
	o.layer["service.queue_ms"] = 1000 * frac(d[queueSum], d[queueCount])
	o.layer["cache.result_hit_rate"] = frac(d[hitsResult], d[hitsResult]+d[missesResult])
	o.layer["cache.result_evictions"] = d[evictResult]
	o.layer["cache.matrix_hit_rate"] = frac(d[hitsMatrix], d[hitsMatrix]+d[missesMatrix])
	o.layer["cache.matrix_evictions"] = d[evictMatrix]
	o.layer["cache.matrix_builds"] = d[matrixBuilds]
	o.layer["cache.coalesced"] = d[coalescedResult] + d[coalescedMatrix]
	o.layer["fleet.peer_hit_rate"] = frac(d[peerHitsResult], d[peerHitsResult]+d[peerMissResult]+d[peerErrResult])
	o.layer["fleet.peer_errors"] = d[peerErrResult] + d[peerErrMatrix]
}

// cacheMeta summarises one phase's merged deltas for the metadata line.
func cacheMeta(d series) map[string]float64 {
	return map[string]float64{
		"result_hits":      d[hitsResult],
		"result_misses":    d[missesResult],
		"result_evictions": d[evictResult],
		"matrix_hits":      d[hitsMatrix],
		"matrix_misses":    d[missesMatrix],
		"matrix_evictions": d[evictMatrix],
		"matrix_builds":    d[matrixBuilds],
		"peer_hits":        d[peerHitsResult],
		"peer_errors":      d[peerErrResult] + d[peerErrMatrix],
		"rejected_429":     d[rejected429],
	}
}
