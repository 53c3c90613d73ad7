// Package obs is the zero-dependency observability core behind manirankd
// and the manirank library: typed metrics with Prometheus text exposition,
// request-scoped tracing carried through context.Context, and a Che-style
// cache hit-rate estimator that turns the live request stream into a
// predicted-vs-actual drift signal.
//
// Three pillars (DESIGN.md §11):
//
//  1. Metrics (registry.go, metrics.go, histogram.go): a Registry of
//     counters, gauges, and log-bucketed latency histograms. Counters and
//     gauges are lock-free atomics that the serving layer and the cache
//     tiers share directly. The registry is the one telemetry source: the
//     serving layer's /metricsz renders it as Prometheus text
//     (WritePrometheus) and /statz as a JSON view of the same series
//     (Value), so the two endpoints can never disagree. Histograms replace
//     the historical fixed-window latency rings: arbitrary quantiles are
//     answered by interpolating the log-spaced buckets, and the full bucket
//     vector exports in Prometheus histogram format for real percentile
//     math server-side (PromQL histogram_quantile) instead of lossy
//     pre-aggregated p50/p99 pairs.
//
//  2. Tracing (trace.go, tracering.go): a Trace rides the request context
//     through every serving layer — queue, both cache tiers, the persistent
//     store, the engine, the kemeny restart loops — collecting named spans.
//     Completed traces land in a bounded TraceRing (recent + slowest-N)
//     served at /tracez, so a slow request is attributable to a stage
//     without re-running it under a profiler.
//
//  3. Modelling (che.go): CheEstimator maintains an online popularity
//     histogram of the request stream and predicts the cache hit rate a
//     given capacity should achieve under the Che approximation ("A
//     unified approach to the performance analysis of caching systems").
//     The serving layer exports predicted vs measured per tier; sustained
//     drift means the traffic model (or the tier sizing) is wrong — the
//     input signal for ROADMAP item 3's model-driven autotuning.
//
// Everything in the package is safe for concurrent use and allocates O(1)
// per observation; nothing imports outside the standard library.
package obs
