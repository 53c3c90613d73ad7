// Package service is manirankd's serving layer: an HTTP JSON API over the
// manirank.Engine solver registry (every request resolves its method via
// manirank.ParseMethod and solves through Engine.Solve on the shared,
// cached precedence matrix) with three server-grade layers on top of the
// compute core —
//
//  1. two cache tiers (internal/service/cache), both keyed by canonical
//     SHA-256 digests and both single-flight coalesced: a result cache over
//     the full request digest (pluggable LRU or Compact-CAR-style clock
//     replacement, Config.CachePolicy) so identical requests compute once,
//     and a precedence-matrix cache over the profile sub-digest so
//     *different* methods or solver options over an already-seen profile
//     skip the O(n²·m) matrix construction — admission is bounded by memory
//     cost (n² cells per matrix), not entry count;
//  2. admission and scheduling: a bounded job queue feeding a fixed solver
//     worker pool, per-request deadlines threaded as context.Context into
//     the Kemeny/Fair-Kemeny restart loops (best-so-far on expiry), and
//     backpressure (HTTP 429) when the queue is full;
//  3. observability (internal/obs, DESIGN.md §11): one obs.Registry holds
//     every counter, gauge, and latency histogram; /statz renders it as
//     JSON and /metricsz as Prometheus text — the same live atomics, so
//     the two can never disagree. Each request carries an obs.Trace whose
//     per-stage spans (queue, cache lookups, disk, matrix build, solve,
//     encode) land in a bounded ring at /tracez, with requests slower
//     than Config.TraceSlow also logged with their span breakdown. Per
//     tier, a Che-style estimator predicts the hit rate the configured
//     capacity should achieve and exports it next to the measured rate.
//
// See DESIGN.md §6–§7 for the queue → caches → solver architecture.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"manirank"
	"manirank/internal/aggregate"
	"manirank/internal/fleet"
	"manirank/internal/kemeny"
	"manirank/internal/obs"
	"manirank/internal/ranking"
	"manirank/internal/service/cache"
)

// Config tunes a Server. Zero fields take the documented defaults.
type Config struct {
	// QueueDepth bounds the admission queue; a full queue answers 429
	// (default 64).
	QueueDepth int
	// Workers is the solver pool width — at most this many requests compute
	// concurrently (default GOMAXPROCS).
	Workers int
	// SolverWorkers shards each individual solve's restarts
	// (kemeny.Options.Workers). Default 1: under concurrent load the request
	// pool owns the machine's parallelism, and restart pools per solve would
	// oversubscribe it — the same reasoning as the experiment harness.
	SolverWorkers int
	// CacheSize is the result-cache capacity in entries (default 1024;
	// negative disables caching).
	CacheSize int
	// CachePolicy selects the result cache's replacement policy:
	// cache.PolicyClock (default) or cache.PolicyLRU.
	CachePolicy string
	// CacheTTL expires cached results (default 0: never). With a TTL set the
	// server also runs a clock-driven reaper that sweeps expired entries out
	// of memory even when nothing re-requests them.
	CacheTTL time.Duration
	// CacheDir, when non-empty, roots a persistent content-addressed tier
	// under both caches: every admitted result and matrix is written through
	// to disk, memory misses consult disk before computing, and both tiers
	// are flushed on Close — so a restarted server serves its previous
	// working set warm. The directory must be dedicated to this server's
	// cache (stale version trees inside it are pruned on startup).
	CacheDir string
	// EngineVersion is the engine-behaviour component of the persistent
	// tier's namespace (default DefaultEngineVersion). Bump it at deploy time
	// when solver behaviour changes: every entry persisted under the old
	// version becomes unreachable. Ignored without CacheDir.
	EngineVersion string
	// SnapshotInterval, when positive and CacheDir is set, flushes both
	// memory tiers to the persistent store on this period — so a crash
	// loses at most one interval of residents whose write-through failed,
	// not everything since the last graceful shutdown.
	SnapshotInterval time.Duration
	// DiskBudgetBytes, when positive and CacheDir is set, bounds the bytes
	// the persistent tier may hold across both namespaces; the oldest-read
	// entry files are evicted when the budget is crossed (cache.DiskBudget).
	// Zero leaves the disk tier unbounded (the pre-fleet behaviour).
	DiskBudgetBytes int64
	// Fleet, when non-nil, shards both cache tiers across the configured
	// replica set by rendezvous hashing (DESIGN.md §13): local misses
	// peer-fetch from the digest's owner before computing, matrix builds
	// route to the owner, and the /internal/v1/peer/ handlers are mounted.
	// The caller keeps ownership: close the fleet after Server.Close.
	Fleet *fleet.Fleet
	// PrecCacheCells budgets the precedence-matrix tier in matrix cells (a
	// profile over n candidates costs n² cells ≈ 4n² bytes). Default
	// DefaultPrecCacheCells; negative disables storage (builds still
	// coalesce).
	PrecCacheCells int64
	// DefaultDeadline caps a solve when the request doesn't set deadline_ms
	// (default 30s).
	DefaultDeadline time.Duration
	// MaxDeadline caps what deadline_ms may ask for (default 5m).
	MaxDeadline time.Duration
	// MaxBodyBytes bounds the request body (default 32 MiB).
	MaxBodyBytes int64
	// MaxSessions bounds the number of live streaming sessions (default 256;
	// negative disables the session endpoint). Session creation beyond the
	// bound answers 429 until a session is deleted.
	MaxSessions int
	// TraceSlow, when positive, logs any request whose wall time reaches it
	// with the request's full span breakdown (the trace lands in /tracez
	// either way). Zero disables the slow-request log.
	TraceSlow time.Duration
	// Logger receives structured request logs (default slog.Default()).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.SolverWorkers == 0 {
		c.SolverWorkers = 1
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.CachePolicy == "" {
		c.CachePolicy = cache.PolicyClock
	}
	if c.PrecCacheCells == 0 {
		c.PrecCacheCells = DefaultPrecCacheCells
	}
	if c.PrecCacheCells < 0 {
		c.PrecCacheCells = 0 // MatrixCache treats 0 as storage off
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline == 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 256
	}
	if c.MaxSessions < 0 {
		c.MaxSessions = 0 // sessions disabled
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// DefaultPrecCacheCells is the default precedence-tier budget: 4M int32
// cells ≈ 16 MiB, room for ~16 n=500 matrices or ~1100 n=60 ones.
const DefaultPrecCacheCells = 4 << 20

// Errors the admission layer maps to HTTP statuses.
var (
	// ErrQueueFull: the bounded queue rejected the request (429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrExpiredInQueue: the request's deadline elapsed before a solver
	// worker picked it up (504).
	ErrExpiredInQueue = errors.New("service: deadline expired while queued")
	// ErrShuttingDown: the server is draining (503).
	ErrShuttingDown = errors.New("service: shutting down")
)

// result is the cached/shared outcome of one solve.
type result struct {
	Ranking ranking.Ranking `json:"ranking"`
	Method  string          `json:"method"`
	PDLoss  float64         `json:"pd_loss"`
	Audit   *auditPayload   `json:"audit,omitempty"`
	Partial bool            `json:"partial"`
}

// auditPayload is the wire form of a fairness audit.
type auditPayload struct {
	ARPs map[string]float64 `json:"arps"`
	IRP  float64            `json:"irp"`
}

// AggregateResponse is the POST /v1/aggregate response body.
type AggregateResponse struct {
	result
	Cached    bool    `json:"cached"`
	Coalesced bool    `json:"coalesced"`
	Digest    string  `json:"digest"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// job is one admitted solve travelling from the handler to a worker.
type job struct {
	pb       *problem
	ctx      context.Context // carries the compute deadline and the trace
	enqueued time.Time       // when the job entered the queue (the queue span's start)
	done     chan struct{}
	res      *result
	err      error
	// run, when non-nil, replaces the stateless s.solve(pb) with a custom
	// computation — the session endpoint's warm-started engine solves. pb
	// still rides along for the per-method histogram and logging.
	run func(ctx context.Context) (*result, error)
	// state arbitrates the queued job between the worker and a leader whose
	// deadline lapses while it waits: exactly one of claim/abandon wins.
	state atomic.Int32 // 0 = queued, 1 = claimed by a worker, 2 = abandoned by the leader
}

// claim marks the job as picked up by a worker; false means the leader
// already walked away and the job must be dropped.
func (j *job) claim() bool { return j.state.CompareAndSwap(0, 1) }

// abandon marks the job as given up by its leader; false means a worker
// already claimed it and the leader must keep waiting for the (imminent,
// deadline-bounded) result.
func (j *job) abandon() bool { return j.state.CompareAndSwap(0, 2) }

// Server is the manirankd serving core. Construct with New, mount via
// Handler, stop with Close.
type Server struct {
	cfg     Config
	cache   *cache.Tier[*result]
	prec    *cache.Tier[*ranking.Precedence]
	stores  []cache.Store // persistent tiers to close after the final flush
	jobs    chan *job
	quit    chan struct{}
	wg      sync.WaitGroup
	log     *slog.Logger
	started time.Time

	inFlight atomic.Int64 // solves currently executing
	queued   atomic.Int64 // jobs waiting in the queue

	// Streaming sessions (session.go): id → live session. sessMu guards the
	// map only; each session carries its own lock.
	sessMu   sync.Mutex
	sessions map[string]*session

	// The telemetry core (internal/obs). Every family below lives in reg,
	// which /metricsz renders as Prometheus text; /statz reads the same
	// structs. All label sets are pre-registered at construction — statuses
	// from the fixed set the handler can emit, methods from the solver
	// registry, stages from the span allowlist — so cardinality is bounded
	// no matter what traffic arrives (the historical methodLat sync.Map
	// grew a ring per observed method string instead).
	reg         *obs.Registry
	traces      *obs.TraceRing
	histSolve   *obs.Histogram            // request latency, computed requests
	histHit     *obs.Histogram            // request latency, cache hits
	methodHist  map[string]*obs.Histogram // pure solve time per method
	stageHist   map[string]*obs.Histogram // per-stage time from trace spans
	status      map[int]*obs.Counter      // requests by status
	statusOther *obs.Counter              // statuses outside the known set
	cheResult   *obs.CheEstimator         // result-tier popularity model
	cheMatrix   *obs.CheEstimator         // matrix-tier popularity model
	sessionOps  map[string]*obs.Counter   // session operations by op
	closeOnce   sync.Once

	// Fleet peering (peer.go): nil on a single node. pushSem bounds the
	// background pushes (after-compute homing + re-owned warming).
	fleet           *fleet.Fleet
	pushSem         chan struct{}
	peerWarms       *obs.Counter // entries pushed by re-owned-key warming
	snapshotFlushes *obs.Counter // background snapshot ticks completed
}

// New starts a Server's worker pool and returns it. It fails on an unknown
// Config.CachePolicy or an unusable Config.CacheDir.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	policy, err := cache.NewPolicy(cfg.CachePolicy, cfg.CacheSize)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg: cfg,
		cache: cache.New(cache.Config[*result]{
			Name: "result", Budget: int64(cfg.CacheSize), TTL: cfg.CacheTTL,
			Policy: policy, Size: resultSizer,
		}),
		prec: cache.New(cache.Config[*ranking.Precedence]{
			Name: "matrix", Budget: cfg.PrecCacheCells,
			Cost: (*ranking.Precedence).Cells, Size: matrixSizer,
		}),
		jobs:      make(chan *job, cfg.QueueDepth),
		quit:      make(chan struct{}),
		log:       cfg.Logger,
		started:   time.Now(),
		traces:    obs.NewTraceRing(0, 0),
		cheResult: obs.NewCheEstimator(),
		cheMatrix: obs.NewCheEstimator(),
		sessions:  make(map[string]*session),
		fleet:     cfg.Fleet,
		pushSem:   make(chan struct{}, peerPushConcurrency),
	}
	s.initObs()
	if cfg.CacheDir != "" {
		ns := CacheNamespace(cfg.EngineVersion)
		rs, err := cache.OpenFileStore(cfg.CacheDir, ns+"/results")
		if err != nil {
			return nil, err
		}
		ms, err := cache.OpenFileStore(cfg.CacheDir, ns+"/matrices")
		if err != nil {
			rs.Close()
			return nil, err
		}
		if cfg.DiskBudgetBytes > 0 {
			budget := cache.NewDiskBudget(cfg.CacheDir, cfg.DiskBudgetBytes)
			rs.SetBudget(budget)
			ms.SetBudget(budget)
			s.reg.GaugeFunc("manirank_cache_disk_used_bytes",
				"bytes held by the persistent tier under the disk budget",
				func() float64 { return float64(budget.Used()) })
			s.reg.GaugeFunc("manirank_cache_disk_budget_bytes",
				"configured persistent-tier byte budget",
				func() float64 { return float64(budget.Limit()) })
			s.reg.RegisterCounter("manirank_cache_disk_evictions_total",
				"entry files evicted under disk pressure", budget.Evictions())
			s.reg.RegisterCounter("manirank_cache_disk_evicted_bytes_total",
				"bytes reclaimed by disk eviction", budget.BytesEvicted())
		}
		s.cache.AttachStore(rs, resultCodec())
		s.prec.AttachStore(ms, matrixCodec())
		s.stores = append(s.stores, rs, ms)
		s.log.Info("persistent cache tier attached", "dir", cfg.CacheDir, "namespace", ns)
		if cfg.SnapshotInterval > 0 {
			s.wg.Add(1)
			go s.snapshotter(cfg.SnapshotInterval)
		}
	}
	if s.fleet != nil {
		s.fleet.SetNamespace(CacheNamespace(cfg.EngineVersion))
		s.fleet.OnChange(s.warmReowned)
		s.log.Info("fleet peering attached",
			"self", s.fleet.Self(), "nodes", len(s.fleet.Nodes()))
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.CacheTTL > 0 {
		interval := cfg.CacheTTL / 2
		if interval < time.Second {
			interval = time.Second
		}
		s.wg.Add(1)
		go s.reaper(interval)
	}
	return s, nil
}

// traceStages is the span-name allowlist aggregated into the per-stage
// histogram family. Solver-internal spans (kemeny_restart, per-pass) stay
// trace-only: they are per-request diagnostics, not bounded stage series.
var traceStages = []string{
	"queue",
	"result_lookup", "result_wait", "result_disk_read", "result_disk_write", "result_peer_read",
	"matrix_lookup", "matrix_wait", "matrix_build", "matrix_disk_read", "matrix_disk_write", "matrix_peer_read",
	"solve", "encode",
}

// knownStatuses is every HTTP status the aggregate handler can emit; each
// gets a pre-registered counter, anything else lands in status="other".
var knownStatuses = []int{
	http.StatusOK, http.StatusBadRequest, http.StatusMethodNotAllowed,
	http.StatusNotFound, http.StatusTooManyRequests,
	http.StatusInternalServerError, http.StatusServiceUnavailable,
	http.StatusGatewayTimeout,
}

// sessionOpNames is every session operation the endpoint accepts (plus the
// lifecycle pseudo-ops); each gets a pre-registered counter so the family's
// cardinality is bounded regardless of traffic.
var sessionOpNames = []string{"create", "add", "remove", "update", "solve", "delete"}

// resultSizer approximates a cached result's resident footprint for the
// per-tier bytes gauge — slice header plus elements, strings, and audit
// map. An estimate is enough: the gauge exists to show relative tier
// pressure, not to account allocations.
func resultSizer(r *result) int64 {
	b := int64(96) + 8*int64(len(r.Ranking)) + int64(len(r.Method))
	if r.Audit != nil {
		b += 48
		for name := range r.Audit.ARPs {
			b += 48 + int64(len(name))
		}
	}
	return b
}

// matrixSizer prices a resident precedence matrix: its cells are int32.
func matrixSizer(w *ranking.Precedence) int64 { return 4 * w.Cells() }

// initObs builds the metric registry: every former /statz counter plus the
// new histogram and model families. Counters owned by the cache tiers are
// adopted by pointer (RegisterCounter), not copied — the registry and
// Stats() read the same atomics.
func (s *Server) initObs() {
	r := obs.NewRegistry()
	s.reg = r

	s.status = make(map[int]*obs.Counter, len(knownStatuses))
	for _, code := range knownStatuses {
		s.status[code] = r.Counter("manirank_requests_total",
			"aggregate requests by HTTP status", obs.L("status", strconv.Itoa(code)))
	}
	s.statusOther = r.Counter("manirank_requests_total",
		"aggregate requests by HTTP status", obs.L("status", "other"))

	r.GaugeFunc("manirank_queue_depth", "jobs waiting in the admission queue",
		func() float64 { return float64(s.queued.Load()) })
	r.GaugeFunc("manirank_queue_capacity", "admission queue capacity",
		func() float64 { return float64(s.cfg.QueueDepth) })
	r.GaugeFunc("manirank_in_flight", "solves currently executing",
		func() float64 { return float64(s.inFlight.Load()) })
	r.GaugeFunc("manirank_workers", "solver pool width",
		func() float64 { return float64(s.cfg.Workers) })
	r.GaugeFunc("manirank_uptime_seconds", "seconds since the server started",
		func() float64 { return time.Since(s.started).Seconds() })

	// Streaming sessions: live-session gauge plus one counter per operation.
	r.GaugeFunc("manirank_sessions_active", "live streaming sessions",
		func() float64 {
			s.sessMu.Lock()
			defer s.sessMu.Unlock()
			return float64(len(s.sessions))
		})
	s.sessionOps = make(map[string]*obs.Counter, len(sessionOpNames))
	for _, op := range sessionOpNames {
		s.sessionOps[op] = r.Counter("manirank_session_ops_total",
			"session operations by op", obs.L("op", op))
	}

	// Cache tiers: adopt each tier's counters under its tier label, with
	// measured vs Che-predicted hit rate and their drift — sustained drift
	// means the popularity model (or the capacity assumption) is wrong. The
	// result tier alone expires entries; the matrix tier alone reports its
	// build axis.
	rc, mc := s.cache.Counters(), s.prec.Counters()
	for _, t := range []struct {
		label   string
		c       cache.Counters
		stats   func() cache.Stats
		bytes   func() int64
		predict func() float64
	}{
		{"result", rc, s.cache.Stats, s.cache.Bytes, func() float64 { return s.cheResult.Predict(s.cfg.CacheSize) }},
		{"matrix", mc, s.prec.Stats, s.prec.Bytes, s.predictMatrixHitRate},
	} {
		l := obs.L("tier", t.label)
		r.RegisterCounter("manirank_cache_hits_total", "cache lookups served from memory per tier", t.c.Hits, l)
		r.RegisterCounter("manirank_cache_misses_total", "cache lookups that missed memory per tier", t.c.Misses, l)
		r.RegisterCounter("manirank_cache_coalesced_total", "lookups that joined an in-flight computation per tier", t.c.Coalesced, l)
		r.RegisterCounter("manirank_cache_evictions_total", "entries dropped by capacity pressure per tier", t.c.Evictions, l)
		r.RegisterCounter("manirank_cache_disk_hits_total", "lookups served by the persistent tier per tier", t.c.DiskHits, l)
		r.RegisterCounter("manirank_cache_disk_puts_total", "successful persistent write-throughs per tier", t.c.DiskPuts, l)
		r.RegisterCounter("manirank_cache_disk_errors_total", "persistent-tier failures absorbed per tier", t.c.DiskErrors, l)
		r.RegisterCounter("manirank_cache_peer_hits_total", "lookups served by a fleet peer per tier", t.c.PeerHits, l)
		r.RegisterCounter("manirank_cache_peer_misses_total", "peer fetches answered with an authoritative miss per tier", t.c.PeerMisses, l)
		r.RegisterCounter("manirank_cache_peer_errors_total", "peer fetches that failed and fell back to compute per tier", t.c.PeerErrors, l)
		r.GaugeFunc("manirank_cache_entries", "resident entries per tier",
			func() float64 { return float64(t.stats().Entries) }, l)
		r.GaugeFunc("manirank_cache_resident_bytes", "approximate resident bytes per tier",
			func() float64 { return float64(t.bytes()) }, l)
		r.GaugeFunc("manirank_cache_hit_rate", "measured memory hit rate per tier",
			func() float64 { return t.stats().HitRate() }, l)
		r.GaugeFunc("manirank_cache_hit_rate_predicted", "Che-approximation hit rate per tier", t.predict, l)
		r.GaugeFunc("manirank_cache_hit_rate_drift", "measured minus predicted hit rate per tier",
			func() float64 { return t.stats().HitRate() - t.predict() }, l)
	}
	r.RegisterCounter("manirank_cache_expirations_total", "entries dropped by TTL expiry", rc.Expirations, obs.L("tier", "result"))
	r.RegisterCounter("manirank_matrix_builds_total", "precedence-matrix constructions paid", mc.Builds)
	r.RegisterCounter("manirank_matrix_rejected_total", "built matrices too large to admit", mc.Rejected)
	r.CounterFunc("manirank_matrix_builds_skipped_total",
		"matrix requests answered without running the builder", mc.BuildsSkipped)

	buckets := obs.LatencyBuckets()
	s.histSolve = r.Histogram("manirank_request_seconds",
		"aggregate request latency by outcome", buckets, obs.L("outcome", "solve"))
	s.histHit = r.Histogram("manirank_request_seconds",
		"aggregate request latency by outcome", buckets, obs.L("outcome", "hit"))
	s.methodHist = make(map[string]*obs.Histogram)
	for _, m := range manirank.MethodNames() {
		s.methodHist[m] = r.Histogram("manirank_solve_seconds",
			"pure solver time per method (queue and cache layers excluded)",
			buckets, obs.L("method", m))
	}
	s.stageHist = make(map[string]*obs.Histogram, len(traceStages))
	for _, stage := range traceStages {
		s.stageHist[stage] = r.Histogram("manirank_stage_seconds",
			"per-stage request time from trace spans", buckets, obs.L("stage", stage))
	}

	// Persistence + fleet operations (both satellites of DESIGN.md §13).
	s.snapshotFlushes = r.Counter("manirank_cache_snapshot_flushes_total",
		"background snapshot flush ticks completed")
	s.peerWarms = r.Counter("manirank_fleet_warm_pushes_total",
		"cache entries pushed to their new owner after a membership change")
	if f := s.fleet; f != nil {
		r.GaugeFunc("manirank_fleet_nodes", "configured fleet size, self included",
			func() float64 { return float64(len(f.Nodes())) })
		r.GaugeFunc("manirank_fleet_alive_nodes", "fleet nodes currently believed alive, self included",
			func() float64 { return float64(len(f.Alive())) })
		r.GaugeFunc("manirank_fleet_epoch", "membership epoch (bumps on every alive-set change)",
			func() float64 { return float64(f.Epoch()) })
	}
}

// predictMatrixHitRate runs the Che estimator for the matrix tier. The
// tier is cost-bounded, not entry-bounded, so its entry capacity is
// estimated as budget over the mean resident entry cost; before anything
// is resident there is no estimate and the prediction is 0.
func (s *Server) predictMatrixHitRate() float64 {
	ms := s.prec.Stats()
	if ms.Entries == 0 || ms.CostUsed <= 0 {
		return 0
	}
	capEntries := int(ms.CostBudget / (ms.CostUsed / int64(ms.Entries)))
	return s.cheMatrix.Predict(capEntries)
}

// reaper periodically sweeps expired entries out of the result cache so a
// TTL'd working set that stops being requested releases its memory and
// Policy slots without waiting for capacity pressure (lookupLocked only
// expires entries somebody asks for again).
func (s *Server) reaper(interval time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			s.cache.Sweep()
		}
	}
}

// snapshotter flushes both memory tiers to the persistent store on a fixed
// interval (Config.SnapshotInterval). Write-through already persists every
// admission once, so each tick only re-writes residents whose earlier disk
// write failed — bounding what a crash can lose to one interval instead of
// everything since the last graceful shutdown.
func (s *Server) snapshotter(interval time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			nr := s.cache.Flush()
			nm := s.prec.Flush()
			s.snapshotFlushes.Inc()
			s.log.Debug("cache snapshot flushed", "results", nr, "matrices", nm)
		}
	}
}

// Close drains the solver pool: workers finish their current job and exit,
// and any job still queued fails with ErrShuttingDown. With a persistent
// tier attached, both caches then snapshot-flush to disk and the stores are
// closed, so the next process starts from this one's full working set (not
// just what write-through persisted). Stop accepting HTTP traffic
// (http.Server.Shutdown) before calling Close so no handler is left waiting.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.quit)
		s.wg.Wait()
		for drained := false; !drained; {
			select {
			case j := <-s.jobs:
				j.err = ErrShuttingDown
				close(j.done)
			default:
				drained = true
			}
		}
		if len(s.stores) > 0 {
			nr := s.cache.Flush()
			nm := s.prec.Flush()
			s.log.Info("persistent cache tier flushed", "results", nr, "matrices", nm)
			for _, st := range s.stores {
				st.Close()
			}
		}
	})
}

// worker pops admitted jobs and solves them until Close.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case j := <-s.jobs:
			s.queued.Add(-1)
			obs.FromContext(j.ctx).AddSpan("queue", j.enqueued, time.Now())
			if !j.claim() {
				// The leader already answered 504 for it; nobody is
				// listening, so don't waste a solver slot.
				continue
			}
			if j.ctx.Err() != nil {
				// Expired while queued: don't waste a solver slot on it.
				j.err = ErrExpiredInQueue
				close(j.done)
				continue
			}
			s.inFlight.Add(1)
			t0 := time.Now()
			if j.run != nil {
				j.res, j.err = j.run(j.ctx)
			} else {
				j.res, j.err = s.solve(j.ctx, j.pb)
			}
			if j.err == nil {
				// Solve time is measured worker-side — queueing, coalescing,
				// and cache lookups excluded — so the per-method family
				// separates solver cost from serving overhead. The method
				// set is pre-registered from the solver registry
				// (buildProblem validated the name), so the lookup is total.
				if h, ok := s.methodHist[j.pb.method.String()]; ok {
					observeSeconds(h, time.Since(t0))
				}
			}
			s.inFlight.Add(-1)
			close(j.done)
		}
	}
}

// kemenyOptions lowers the request's solver knobs onto the engine options.
func (s *Server) kemenyOptions(o SolverOptions) aggregate.KemenyOptions {
	return aggregate.KemenyOptions{
		ExactThreshold: o.ExactThreshold,
		MaxNodes:       o.MaxNodes,
		Heuristic: kemeny.Options{
			Seed:          o.Seed,
			Perturbations: o.Perturbations,
			Strength:      o.Strength,
			Workers:       s.cfg.SolverWorkers,
		},
	}
}

// precedence returns the problem's precedence matrix through the shared
// matrix tier: keyed by the profile sub-digest, so any method over an
// already-seen profile reuses the stored W, and concurrent first sights of
// one profile build it exactly once. The matrix is immutable once built —
// every solver only reads it — which is what makes sharing across worker
// goroutines sound. ctx bounds only a follower's wait on another worker's
// flight (which may include disk I/O); the build itself runs to completion.
func (s *Server) precedence(ctx context.Context, pb *problem) (*ranking.Precedence, error) {
	// Feed the popularity model the stream this tier actually sees: profile
	// sub-digests of requests that missed the result tier.
	s.cheMatrix.Observe(pb.profDigest)
	w, _, _, err := s.prec.DoFetch(ctx, pb.profDigest, s.matrixFetch(pb), func() (*ranking.Precedence, bool, error) {
		defer obs.StartSpan(ctx, "matrix_build")()
		w, err := ranking.NewPrecedence(pb.profile)
		return w, true, err
	})
	return w, err
}

// solve runs one problem on the engine registry. ctx carries the request
// deadline; the Kemeny engines return best-so-far on expiry, so a partial
// result is still a valid (and for fair methods, feasible) ranking.
//
// The cached precedence matrix is wrapped in a manirank.Engine (a cheap
// three-pointer struct) so the service shares the exact dispatch path of
// the library and the CLI: every method — Borda included — consumes the
// shared W (BordaW / FairBordaW derive integer-identical point totals from
// W's row sums, so routing through the tier never changes an answer), the
// Result's PD loss divides the same integers whether computed from W or
// from the raw profile, and the partial flag is sampled by the registry
// immediately after the cancellable engines return (a deadline lapsing
// during audit bookkeeping can never mislabel a complete result and evict
// it from cacheability).
func (s *Server) solve(ctx context.Context, pb *problem) (*result, error) {
	w, err := s.precedence(ctx, pb)
	if err != nil {
		return nil, err
	}
	eng, err := manirank.NewEngineW(w, manirank.WithTable(pb.tab))
	if err != nil {
		return nil, err
	}
	sr, err := eng.Solve(ctx, pb.method, pb.targets,
		manirank.WithKemenyOptions(s.kemenyOptions(pb.opts)))
	if err != nil {
		return nil, err
	}
	return buildResult(sr, pb), nil
}

// buildResult lowers an engine Result onto the wire form shared by the
// stateless and session solve paths.
func buildResult(sr *manirank.Result, pb *problem) *result {
	res := &result{
		Ranking: sr.Ranking,
		Method:  pb.method.String(),
		PDLoss:  sr.PDLoss,
		Partial: sr.Partial,
	}
	if sr.Report != nil {
		arps := make(map[string]float64, len(sr.Report.ARPs))
		for i, a := range pb.tab.Attrs() {
			arps[a.Name] = sr.Report.ARPs[i]
		}
		res.Audit = &auditPayload{ARPs: arps, IRP: sr.Report.IRP}
	}
	return res
}

// deadline resolves a request's compute budget.
func (s *Server) deadline(req *AggregateRequest) time.Duration {
	d := s.cfg.DefaultDeadline
	if req.DeadlineMillis > 0 {
		d = time.Duration(req.DeadlineMillis) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

// admit queues pb for the worker pool and waits for its result. The compute
// context is detached from the requester: coalesced followers must not lose
// the computation because the leader's connection died, and the deadline
// bounds it regardless. The leader's trace is re-attached to the detached
// context explicitly so the worker's queue/solve spans land on it. run, when
// non-nil, replaces the stateless solve (see job.run).
func (s *Server) admit(tr *obs.Trace, pb *problem, budget time.Duration, run func(ctx context.Context) (*result, error)) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	ctx = obs.WithTrace(ctx, tr)
	j := &job{pb: pb, ctx: ctx, enqueued: time.Now(), done: make(chan struct{}), run: run}
	// Count the job before the send: a worker may pop it (and decrement)
	// the instant the send lands, and the depth gauge must never go
	// negative. The rejection paths undo the increment.
	s.queued.Add(1)
	select {
	case s.jobs <- j:
	case <-s.quit:
		s.queued.Add(-1)
		return nil, ErrShuttingDown
	default:
		s.queued.Add(-1)
		return nil, ErrQueueFull
	}
	select {
	case <-j.done:
		return j.res, j.err
	case <-ctx.Done():
		// The compute deadline lapsed. If the job is still queued behind
		// busy workers, abandon it and answer 504 now instead of holding
		// the connection until a worker pops (and then drops) it. If a
		// worker already claimed it, the cooperative cancellation bounds
		// the remaining solve time — wait for its best-so-far result.
		if j.abandon() {
			return nil, ErrExpiredInQueue
		}
		<-j.done
		return j.res, j.err
	case <-s.quit:
		// Close drains the queue and resolves every job; prefer its answer
		// when it already landed.
		select {
		case <-j.done:
			return j.res, j.err
		default:
			return nil, ErrShuttingDown
		}
	}
}

// Handler returns the service's HTTP mux: POST /v1/aggregate, the streaming
// session surface (POST /v1/session to create, POST /v1/session/{id} to
// mutate and re-solve, GET/DELETE /v1/session/{id}), GET /healthz, GET
// /statz (JSON), GET /metricsz (Prometheus text), GET /tracez (recent and
// slowest request traces, JSON).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/aggregate", s.handleAggregate)
	mux.HandleFunc("/v1/session", s.handleSessionCreate)
	mux.HandleFunc("/v1/session/", s.handleSession)
	mux.HandleFunc("/healthz", s.handleHealthz)
	if s.fleet != nil {
		mux.HandleFunc(fleet.PathPrefix, s.handlePeer)
	}
	mux.HandleFunc("/statz", s.handleStatz)
	mux.HandleFunc("/metricsz", s.handleMetricsz)
	mux.HandleFunc("/tracez", s.handleTracez)
	return mux
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		s.writeError(w, r, http.StatusMethodNotAllowed, errors.New("use POST"), start)
		return
	}
	var req AggregateRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err), start)
		return
	}
	pb, err := buildProblem(&req)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err, start)
		return
	}
	digest := pb.digest
	budget := s.deadline(&req)

	// The request trace starts once the problem is valid (malformed bodies
	// have no stages worth attributing) and rides every context from here:
	// the follower wait, both cache tiers, the queue, and the solvers.
	tr := obs.NewTrace(pb.method.String(), digest[:12])
	s.cheResult.Observe(digest)

	// Followers wait at most their own budget for the leader's flight.
	waitCtx, cancelWait := context.WithTimeout(r.Context(), budget)
	defer cancelWait()
	waitCtx = obs.WithTrace(waitCtx, tr)
	res, hit, shared, err := s.cache.DoFetch(waitCtx, digest, s.resultFetch(digest), func() (*result, bool, error) {
		res, err := s.admit(tr, pb, budget, nil)
		if err != nil {
			return nil, false, err
		}
		return res, !res.Partial, nil
	})
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrQueueFull):
			status = http.StatusTooManyRequests
		case errors.Is(err, ErrExpiredInQueue),
			errors.Is(err, context.DeadlineExceeded),
			errors.Is(err, context.Canceled):
			status = http.StatusGatewayTimeout
		case errors.Is(err, ErrShuttingDown):
			status = http.StatusServiceUnavailable
		}
		s.writeError(w, r, status, err, start)
		s.finishTrace(tr)
		return
	}
	elapsed := time.Since(start)
	if hit {
		observeSeconds(s.histHit, elapsed)
	} else {
		observeSeconds(s.histSolve, elapsed)
		if !shared {
			// This node just paid a compute for a digest the ring may home
			// elsewhere: hand the owner a copy in the background so the next
			// non-owner's peer fetch finds it.
			s.pushResult(digest, res)
		}
	}
	resp := &AggregateResponse{
		result:    *res,
		Cached:    hit,
		Coalesced: shared,
		Digest:    digest,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	}
	s.countStatus(http.StatusOK)
	s.log.Info("aggregate",
		"method", pb.method.String(),
		"digest", digest[:12],
		"n", pb.profile.N(),
		"rankers", len(pb.profile),
		"status", http.StatusOK,
		"cached", hit,
		"coalesced", shared,
		"partial", res.Partial,
		"elapsed_ms", resp.ElapsedMS,
		"queue_depth", s.queued.Load(),
	)
	endEncode := tr.StartSpan("encode")
	writeJSON(w, http.StatusOK, resp)
	endEncode()
	s.finishTrace(tr)
}

// finishTrace stamps a request trace's wall time, feeds its spans into the
// per-stage histograms, retains it in the /tracez ring, and — past the
// Config.TraceSlow threshold — logs the aggregated span breakdown.
func (s *Server) finishTrace(tr *obs.Trace) {
	wall := tr.Finish()
	spans := tr.Spans()
	for _, sp := range spans {
		if h, ok := s.stageHist[sp.Name]; ok {
			h.Observe(sp.Duration.Seconds())
		}
	}
	s.traces.Add(tr)
	if s.cfg.TraceSlow <= 0 || wall < s.cfg.TraceSlow {
		return
	}
	// Aggregate span durations per stage so the log line stays one line no
	// matter how many solver restarts the trace recorded.
	totals := make(map[string]time.Duration)
	order := make([]string, 0, 8)
	for _, sp := range spans {
		if _, seen := totals[sp.Name]; !seen {
			order = append(order, sp.Name)
		}
		totals[sp.Name] += sp.Duration
	}
	breakdown := make([]string, len(order))
	for i, name := range order {
		breakdown[i] = fmt.Sprintf("%s=%.2fms", name, float64(totals[name])/float64(time.Millisecond))
	}
	s.log.Warn("slow request",
		"trace_id", tr.ID,
		"method", tr.Name,
		"digest", tr.Detail,
		"wall_ms", float64(wall)/float64(time.Millisecond),
		"spans", strings.Join(breakdown, " "),
	)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Statz is the /statz snapshot.
type Statz struct {
	UptimeSeconds float64           `json:"uptime_s"`
	Queue         QueueStatz        `json:"queue"`
	Cache         TierStatz         `json:"cache"`
	CacheHitRate  float64           `json:"cache_hit_rate"`
	Matrix        TierStatz         `json:"precedence_cache"`
	MatrixHitRate float64           `json:"precedence_hit_rate"`
	Requests      map[string]uint64 `json:"requests_by_status"`
	LatencySolve  LatencySnapshot   `json:"latency_solve"`
	LatencyHit    LatencySnapshot   `json:"latency_hit"`
	// LatencyByMethod breaks pure solver time (queueing and cache layers
	// excluded) down per method, so a speedup in one solver family — e.g. the
	// incremental parity auditor in the fair methods — is visible in serving
	// rather than only in benchmarks.
	LatencyByMethod map[string]LatencySnapshot `json:"latency_solve_by_method"`
	// Sessions reports the streaming-session surface.
	Sessions SessionStatz `json:"sessions"`
	// Fleet reports the peering layer; omitted on a single node.
	Fleet *FleetStatz `json:"fleet,omitempty"`
}

// SessionStatz reports the streaming-session surface: live sessions and
// operation counts (ops with no traffic are omitted, matching the
// requests_by_status shape).
type SessionStatz struct {
	Active int               `json:"active"`
	Ops    map[string]uint64 `json:"ops"`
}

// QueueStatz reports the admission layer.
type QueueStatz struct {
	Depth    int64 `json:"depth"`
	Capacity int   `json:"capacity"`
	InFlight int64 `json:"in_flight"`
	Workers  int   `json:"workers"`
}

// StatzSnapshot assembles the /statz payload (exported for the load
// generator and tests). Every number is read from the same obs structs
// the registry exports at /metricsz; only the rendering differs. Status
// and method entries appear once they have traffic, preserving the
// pre-registry JSON shape.
func (s *Server) StatzSnapshot() Statz {
	cs := s.cache.Stats()
	ms := s.prec.Stats()
	st := Statz{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Queue: QueueStatz{
			Depth:    s.queued.Load(),
			Capacity: s.cfg.QueueDepth,
			InFlight: s.inFlight.Load(),
			Workers:  s.cfg.Workers,
		},
		Cache:           TierStatz{cs, resultStatzOmit},
		CacheHitRate:    cs.HitRate(),
		Matrix:          TierStatz{ms, matrixStatzOmit},
		MatrixHitRate:   ms.HitRate(),
		Requests:        map[string]uint64{},
		LatencySolve:    latencySnapshot(s.histSolve),
		LatencyHit:      latencySnapshot(s.histHit),
		LatencyByMethod: map[string]LatencySnapshot{},
	}
	for code, c := range s.status {
		if v := c.Value(); v > 0 {
			st.Requests[strconv.Itoa(code)] = v
		}
	}
	if v := s.statusOther.Value(); v > 0 {
		st.Requests["other"] = v
	}
	for m, h := range s.methodHist {
		if h.Count() > 0 {
			st.LatencyByMethod[m] = latencySnapshot(h)
		}
	}
	s.sessMu.Lock()
	st.Sessions.Active = len(s.sessions)
	s.sessMu.Unlock()
	st.Sessions.Ops = map[string]uint64{}
	for op, c := range s.sessionOps {
		if v := c.Value(); v > 0 {
			st.Sessions.Ops[op] = v
		}
	}
	st.Fleet = s.fleetStatz()
	return st
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatzSnapshot())
}

// handleMetricsz serves the registry in Prometheus text exposition format.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// Tracez is the /tracez payload: the most recent traces (newest first)
// and the slowest retained ones (descending wall time).
type Tracez struct {
	// Recent is the newest-first recent-trace ring.
	Recent []obs.TraceSnapshot `json:"recent"`
	// Slowest is the slowest-N set, descending by wall time.
	Slowest []obs.TraceSnapshot `json:"slowest"`
}

func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	recent, slowest := s.traces.Snapshot()
	writeJSON(w, http.StatusOK, Tracez{Recent: recent, Slowest: slowest})
}

// countStatus bumps the pre-registered counter for status (or the "other"
// series for anything outside the handler's known set).
func (s *Server) countStatus(status int) {
	if c, ok := s.status[status]; ok {
		c.Inc()
		return
	}
	s.statusOther.Inc()
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, err error, start time.Time) {
	s.countStatus(status)
	s.log.Warn("aggregate error",
		"path", r.URL.Path,
		"status", status,
		"error", err.Error(),
		"elapsed_ms", float64(time.Since(start))/float64(time.Millisecond),
		"queue_depth", s.queued.Load(),
	)
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
