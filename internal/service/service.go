// Package service is manirankd's serving layer: an HTTP JSON API over the
// manirank.Engine solver registry (every request resolves its method via
// manirank.ParseMethod and solves through Engine.Solve on the shared,
// cached precedence matrix) with three server-grade layers on top of the
// compute core —
//
//  1. two LRU cache tiers (internal/service/cache), both keyed by
//     canonical SHA-256 digests and both single-flight coalesced: a result
//     cache over the full request digest so identical requests compute
//     once, and a precedence-matrix cache over the profile sub-digest so
//     *different* methods or solver options over an already-seen profile
//     skip the O(n²·m) matrix construction — admission is bounded by memory
//     cost (n² cells per matrix), not entry count;
//  2. admission and scheduling: each solve runs on its request's own
//     goroutine once it holds one of Config.Workers slots — restarts
//     included, so the slots are the server's whole solver parallelism —
//     with at most Config.QueueDepth requests waiting for one and
//     backpressure (HTTP 429) beyond that; per-request deadlines are threaded as context.Context
//     into the Kemeny/Fair-Kemeny restart loops (best-so-far on expiry);
//  3. observability (internal/obs, DESIGN.md §11): one obs.Registry holds
//     every counter, gauge, and latency histogram; /metricsz renders it as
//     Prometheus text and /statz as a JSON view of the same series (every
//     /statz number is a /metricsz series), so the two can never disagree.
//     Each request carries an obs.Trace whose per-stage spans (queue, cache
//     lookups, disk, matrix build, solve, encode) land in a bounded ring at
//     /tracez, with requests slower than Config.TraceSlow also logged with
//     their span breakdown. Per tier, a Che-style estimator predicts the
//     hit rate the configured capacity should achieve and exports it next
//     to the measured rate.
//
// Each step has one copy: every solve — /v1/aggregate and each session
// solve — goes through Server.resolve (result tier, admission,
// Engine.Solve), every matrix lookup through Server.precedence, and every
// traced answer through Server.reply or Server.fail. See DESIGN.md §6–§7
// for the queue → caches → solver architecture.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"manirank"
	"manirank/internal/fleet"
	"manirank/internal/obs"
	"manirank/internal/ranking"
	"manirank/internal/service/cache"
)

// Config tunes a Server. Zero fields take the documented defaults.
type Config struct {
	// QueueDepth bounds how many requests may wait for a solver slot; past
	// it a request answers 429 (default 64; negative is an error).
	QueueDepth int
	// Workers is the number of solver slots — at most this many requests
	// compute concurrently (default GOMAXPROCS). Each solve runs its
	// Kemeny restarts on its own goroutine, so this is the only knob on the
	// server's solver parallelism.
	Workers int
	// CacheSize is the result-cache capacity in entries (default 1024;
	// negative disables caching).
	CacheSize int
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
	// DiskBudgetBytes, when positive and CacheDir is set, bounds the bytes
	// the persistent tier may hold across both namespaces; the oldest-read
	// entry files are evicted when the budget is crossed (cache.DiskBudget).
	// Zero leaves the disk tier unbounded (the pre-fleet behaviour).
	DiskBudgetBytes int64
	// Fleet, when non-nil, shards both cache tiers across the configured
	// replica set by rendezvous hashing (DESIGN.md §13): a local miss reads
	// the digest from its owner before computing (an owner reads its
	// runner-up), a non-owner's matrix build routes to the owner, and the
	// read-only /internal/v1/peer/ handlers are mounted.
	// The caller keeps ownership: close the fleet after Server.Close.
	Fleet *fleet.Fleet
	// PrecCacheCells budgets the precedence-matrix tier in matrix cells (a
	// profile over n candidates costs n² cells: 2n² bytes while it has at
	// most 65535 rankings, 4n² beyond). Default
	// DefaultPrecCacheCells; negative disables storage (builds still
	// coalesce).
	PrecCacheCells int64
	// DefaultDeadline caps a solve when the request doesn't set deadline_ms
	// (default 30s; negative is an error).
	DefaultDeadline time.Duration
	// MaxDeadline caps what deadline_ms may ask for (default 5m; negative is
	// an error).
	MaxDeadline time.Duration
	// MaxBodyBytes bounds the request body (default 32 MiB; negative is an
	// error).
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
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.PrecCacheCells == 0 {
		c.PrecCacheCells = DefaultPrecCacheCells
	}
	if c.PrecCacheCells < 0 {
		c.PrecCacheCells = 0 // the matrix tier treats 0 as storage off
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

// DefaultPrecCacheCells is the default precedence-tier budget: 4M cells,
// room for ~16 n=500 matrices or ~1100 n=60 ones — 16 MiB at the int32
// width, 8 MiB for the uint16 matrices of profiles with at most 65535
// rankings.
const DefaultPrecCacheCells = 4 << 20

// Errors the admission layer maps to HTTP statuses.
var (
	// ErrQueueFull: the bounded queue rejected the request (429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrExpiredInQueue: the request's deadline elapsed before it got a
	// solver slot (504).
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

// Server is the manirankd serving core. Construct with New, mount via
// Handler, stop with Close.
type Server struct {
	cfg     Config
	cache   *cache.Tier[*result]
	prec    *cache.Tier[*ranking.Precedence]
	stores  []cache.Store // persistent tiers to close after the final flush
	slots   chan struct{} // one element per running solve, capacity Config.Workers
	quit    chan struct{}
	log     *slog.Logger
	started time.Time

	inFlight atomic.Int64 // solves currently executing
	queued   atomic.Int64 // requests waiting for a solver slot

	// Streaming sessions (session.go): id → live session, or nil while a
	// create holds the id's slot. sessMu guards the map only; each session
	// carries its own lock.
	sessMu   sync.Mutex
	sessions map[string]*session

	// The telemetry core (internal/obs). Every family below lives in reg,
	// which /metricsz renders as Prometheus text and /statz as JSON. All
	// label sets are pre-registered at construction — statuses from the
	// fixed set the handler can emit, methods from the solver registry,
	// stages from the span allowlist — so cardinality is bounded no matter
	// what traffic arrives (the historical methodLat sync.Map grew a ring
	// per observed method string instead).
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

	fleet *fleet.Fleet // fleet peering (peer.go): nil on a single node
}

// New returns a Server ready to mount with Handler. It fails on a negative
// Config.QueueDepth, DefaultDeadline, MaxDeadline or MaxBodyBytes, or an
// unusable Config.CacheDir.
func New(cfg Config) (*Server, error) {
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("service: negative queue depth %d", cfg.QueueDepth)
	}
	if cfg.DefaultDeadline < 0 {
		return nil, fmt.Errorf("service: negative default deadline %v", cfg.DefaultDeadline)
	}
	if cfg.MaxDeadline < 0 {
		return nil, fmt.Errorf("service: negative max deadline %v", cfg.MaxDeadline)
	}
	if cfg.MaxBodyBytes < 0 {
		// http.MaxBytesReader would read a negative limit as 0 and answer
		// every non-empty body 400.
		return nil, fmt.Errorf("service: negative max body size %d", cfg.MaxBodyBytes)
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		cache: cache.New(cache.Config[*result]{
			Name: "result", Budget: int64(cfg.CacheSize), Size: resultSizer,
		}),
		// The matrix tier budgets cells; its bytes gauge reads the cells
		// at their width (uint16 while m ≤ 65535, int32 beyond).
		prec: cache.New(cache.Config[*ranking.Precedence]{
			Name: "matrix", Budget: cfg.PrecCacheCells,
			Cost: (*ranking.Precedence).Cells, Size: (*ranking.Precedence).CellBytes,
		}),
		slots:     make(chan struct{}, cfg.Workers),
		quit:      make(chan struct{}),
		log:       cfg.Logger,
		started:   time.Now(),
		traces:    obs.NewTraceRing(0, 0),
		cheResult: obs.NewCheEstimator(),
		cheMatrix: obs.NewCheEstimator(),
		sessions:  make(map[string]*session),
		fleet:     cfg.Fleet,
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
	}
	if s.fleet != nil {
		s.fleet.SetNamespace(CacheNamespace(cfg.EngineVersion))
		s.log.Info("fleet peering attached",
			"self", s.fleet.Self(), "nodes", len(s.fleet.Nodes()))
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

// initObs builds the metric registry, the one source /statz and /metricsz
// both render. Counters owned by the cache tiers are adopted by pointer
// (RegisterCounter), not copied — the registry and Stats() read the same
// atomics.
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
	// matrix tier alone reports its build axis.
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
		r.GaugeFunc("manirank_cache_in_flight", "leader computations running per tier",
			func() float64 { return float64(t.stats().InFlight) }, l)
		r.GaugeFunc("manirank_cache_cost_used", "summed admission cost of resident entries per tier",
			func() float64 { return float64(t.stats().CostUsed) }, l)
		r.GaugeFunc("manirank_cache_cost_budget", "configured admission cost budget per tier",
			func() float64 { return float64(t.stats().CostBudget) }, l)
		r.GaugeFunc("manirank_cache_hit_rate", "measured memory hit rate per tier",
			func() float64 { return t.stats().HitRate() }, l)
		r.GaugeFunc("manirank_cache_hit_rate_predicted", "Che-approximation hit rate per tier", t.predict, l)
		r.GaugeFunc("manirank_cache_hit_rate_drift", "measured minus predicted hit rate per tier",
			func() float64 { return t.stats().HitRate() - t.predict() }, l)
	}
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

	// Fleet operations (DESIGN.md §13).
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

// Close stops admission: every request still waiting for a solver slot
// fails with ErrShuttingDown, and Close takes all Workers slots, so it
// returns once the running solves have finished. With a persistent tier
// attached, both caches then snapshot-flush to disk and the stores are
// closed, so the next process starts from this one's full working set (not
// just what write-through persisted). Stop accepting HTTP traffic
// (http.Server.Shutdown) before calling Close so no handler is left waiting.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.quit)
		for i := 0; i < s.cfg.Workers; i++ {
			s.slots <- struct{}{}
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

// solveOptions lowers the request's solver knobs onto Engine.Solve options.
// Every solve runs its restarts on one goroutine: the Workers slots own the
// machine's parallelism, and a restart pool per solve would oversubscribe
// it (answers are bitwise identical for every pool width).
func solveOptions(o SolverOptions) []manirank.SolveOption {
	return []manirank.SolveOption{
		manirank.WithExactThreshold(o.ExactThreshold),
		manirank.WithMaxNodes(o.MaxNodes),
		manirank.WithSeed(o.Seed),
		manirank.WithPerturbations(o.Perturbations),
		manirank.WithStrength(o.Strength),
		manirank.WithSolverWorkers(1),
	}
}

// precedence returns the precedence matrix of profile through the shared
// matrix tier, keyed by its profile sub-digest: any method over an
// already-seen profile reuses the stored W, and concurrent first sights of
// one profile build it exactly once. fetch is the tier's fleet hook (nil on
// a single node). The matrix is immutable once built — every solver only
// reads it — which is what makes sharing across worker goroutines sound.
// ctx bounds only a follower's wait on another worker's flight (which may
// include disk I/O); the build itself runs to completion.
func (s *Server) precedence(ctx context.Context, digest string, profile ranking.Profile, fetch cache.FetchFunc[*ranking.Precedence]) (*ranking.Precedence, error) {
	// Feed the popularity model the stream this tier actually sees: profile
	// sub-digests of requests that missed the result tier.
	s.cheMatrix.Observe(digest)
	w, _, _, err := s.prec.Do(ctx, digest, fetch, func() (*ranking.Precedence, bool, error) {
		defer obs.StartSpan(ctx, "matrix_build")()
		w, err := ranking.NewPrecedence(profile)
		return w, true, err
	})
	return w, err
}

// resolve answers one solve of pb under the result-tier key: from the tier
// (memory, disk, or — when fetch is non-nil — a peer), from another
// caller's in-flight solve, or else by solving on the engine that engine
// returns, holding a solver slot (admit) for at most budget. rctx bounds
// only a follower's wait; opts follow the request's own solver options. A
// partial result is answered but never stored, so a full-quality solve can
// replace it; Engine.Solve samples the partial flag right after the
// cancellable solvers return, so a deadline lapsing during audit
// bookkeeping can never mislabel a complete result.
func (s *Server) resolve(rctx context.Context, tr *obs.Trace, key string, pb *problem, budget time.Duration,
	fetch cache.FetchFunc[*result], engine func(ctx context.Context) (*manirank.Engine, error),
	opts ...manirank.SolveOption) (res *result, hit, shared bool, err error) {
	s.cheResult.Observe(key)
	// Followers wait at most their own budget for the leader's flight.
	waitCtx, cancelWait := context.WithTimeout(rctx, budget)
	defer cancelWait()
	return s.cache.Do(obs.WithTrace(waitCtx, tr), key, fetch, func() (*result, bool, error) {
		res, err := s.admit(tr, pb.method, budget, func(ctx context.Context) (*result, error) {
			eng, err := engine(ctx)
			if err != nil {
				return nil, err
			}
			sr, err := eng.Solve(ctx, pb.method, pb.targets, append(solveOptions(pb.opts), opts...)...)
			if err != nil {
				return nil, err
			}
			return buildResult(sr, pb), nil
		})
		if err != nil {
			return nil, false, err
		}
		return res, !res.Partial, nil
	})
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

// deadline resolves the compute budget of a request or session op from its
// deadline_ms: the default when unset, never above MaxDeadline. The cap is
// checked on the millisecond count before converting, because a huge count
// overflows time.Duration into a zero or negative budget.
func (s *Server) deadline(ms int64) time.Duration {
	if ms > s.cfg.MaxDeadline.Milliseconds() {
		return s.cfg.MaxDeadline
	}
	d := s.cfg.DefaultDeadline
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	return min(d, s.cfg.MaxDeadline)
}

// admit runs compute on the caller's goroutine once it holds one of the
// Config.Workers solver slots. With every slot taken it waits, FIFO, unless
// QueueDepth requests already wait (ErrQueueFull); the wait ends early at
// the compute deadline (ErrExpiredInQueue) or at Close (ErrShuttingDown).
// The compute context is detached from the requester: coalesced followers
// must not lose the computation because the leader's connection died, and
// the deadline bounds it regardless. The leader's trace is re-attached to
// the detached context explicitly so the queue and solve spans land on it.
func (s *Server) admit(tr *obs.Trace, method manirank.Method, budget time.Duration, compute func(ctx context.Context) (*result, error)) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	ctx = obs.WithTrace(ctx, tr)
	arrived := time.Now()
	select {
	case s.slots <- struct{}{}:
	default:
		if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
			s.queued.Add(-1)
			return nil, ErrQueueFull
		}
		var err error
		select {
		case s.slots <- struct{}{}:
		case <-ctx.Done():
			err = ErrExpiredInQueue
		case <-s.quit:
			err = ErrShuttingDown
		}
		s.queued.Add(-1)
		if err != nil {
			return nil, err
		}
	}
	// Deferred, so a panicking solver cannot leak its slot; in-flight drops
	// first, so Close (which waits on the slots) sees it at zero.
	defer func() { <-s.slots }()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	t0 := time.Now()
	tr.AddSpan("queue", arrived, t0)
	res, err := compute(ctx)
	if err == nil {
		// Solve time excludes queueing, coalescing and cache lookups, so the
		// per-method family separates solver cost from serving overhead. The
		// method set is pre-registered from the solver registry (buildProblem
		// validated the name), so the lookup is total.
		if h, ok := s.methodHist[method.String()]; ok {
			observeSeconds(h, time.Since(t0))
		}
	}
	return res, err
}

// admitStatus maps an admission or solve error to its HTTP status: 429 for
// a full queue, 504 for a lapsed deadline, 503 while shutting down, and 500
// for anything else.
func admitStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrExpiredInQueue),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
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

// decodeBody decodes the request body, capped at Config.MaxBodyBytes, as
// exactly one JSON value into v. Unknown fields are errors, and so is
// anything but whitespace after the value: a body with trailing junk or a
// second object is malformed, not a valid request with an ignored tail.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		s.writeError(w, r, http.StatusMethodNotAllowed, errors.New("use POST"), start)
		return
	}
	var req AggregateRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err), start)
		return
	}
	pb, err := buildProblem(&req)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err, start)
		return
	}
	digest := pb.digest

	// The request trace starts once the problem is valid (malformed bodies
	// have no stages worth attributing) and rides every context from here:
	// the follower wait, both cache tiers, the queue, and the solvers.
	tr := obs.NewTrace(pb.method.String(), digest[:12])
	// On a result miss the solve wraps the tier's matrix in a
	// manirank.Engine (a cheap three-pointer struct), so the service shares
	// the exact dispatch path of the library and the CLI: every method —
	// Borda included — consumes the shared W (Precedence.Borda / FairBordaW
	// derive integer-identical point totals from W's row sums, so routing
	// through the tier never changes an answer), and the Result's PD loss
	// divides the same integers whether computed from W or from the raw
	// profile.
	res, hit, shared, err := s.resolve(r.Context(), tr, digest, pb, s.deadline(req.DeadlineMillis), s.resultFetch(pb),
		func(ctx context.Context) (*manirank.Engine, error) {
			w, err := s.precedence(ctx, pb.profDigest, pb.profile, s.matrixFetch(pb))
			if err != nil {
				return nil, err
			}
			return manirank.NewEngineW(w, manirank.WithTable(pb.tab))
		})
	if err != nil {
		s.fail(w, r, tr, admitStatus(err), err, start)
		return
	}
	elapsed := time.Since(start)
	if hit {
		observeSeconds(s.histHit, elapsed)
	} else {
		observeSeconds(s.histSolve, elapsed)
	}
	resp := &AggregateResponse{
		result:    *res,
		Cached:    hit,
		Coalesced: shared,
		Digest:    digest,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	}
	s.reply(w, tr, resp, "aggregate",
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
}

// reply answers a traced request 200 with resp: it counts the status, logs
// msg with args, writes the body under the trace's encode span, and
// finishes the trace.
func (s *Server) reply(w http.ResponseWriter, tr *obs.Trace, resp any, msg string, args ...any) {
	s.countStatus(http.StatusOK)
	s.log.Info(msg, args...)
	endEncode := tr.StartSpan("encode")
	writeJSON(w, http.StatusOK, resp)
	endEncode()
	s.finishTrace(tr)
}

// fail answers a traced request with an error and finishes its trace.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, tr *obs.Trace, status int, err error, start time.Time) {
	s.writeError(w, r, status, err, start)
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
