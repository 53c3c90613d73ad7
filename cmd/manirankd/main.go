// Command manirankd serves MANI-Rank fair rank aggregation over HTTP: the
// full solver family behind POST /v1/aggregate, with a two-tier digest-keyed
// LRU cache (full-request results, plus a profile-keyed precedence-matrix
// tier so different methods over the same profile share the O(n²·m)
// construction), single-flight request coalescing, a bounded admission
// queue with 429 backpressure, per-request deadlines (best-so-far on
// expiry), and observability endpoints: /healthz, /statz (JSON), /metricsz
// (Prometheus text over the same registry), and /tracez (recent and
// slowest request traces with per-stage spans; pair with -trace-slow-ms to
// also log slow requests' span breakdowns). With
// -cache-dir both tiers persist to a versioned on-disk store, so a
// restarted daemon serves its previous working set warm; bump
// -cache-engine-version to invalidate everything persisted.
//
// Streaming profiles (DESIGN.md §12): POST /v1/session pins an evolving
// profile server-side; POST /v1/session/{id} with {"op":"add"|"remove"|
// "update"|"solve", ...} patches the session's precedence matrix in O(n²)
// instead of re-paying the full rebuild and re-solves warm-started from the
// previous consensus. GET inspects a session, DELETE ends it; -max-sessions
// bounds how many can be live at once.
//
// Quickstart:
//
//	go run ./cmd/manirankd -addr :8080 &
//	curl -s localhost:8080/v1/aggregate -d '{
//	  "method": "fair-borda",
//	  "profile": [[0,1,2,3],[1,0,3,2],[0,2,1,3]],
//	  "attributes": [{"name":"Gender","values":["M","W"],"of":[0,1,0,1]}],
//	  "delta": 0.4
//	}'
//
// See DESIGN.md §6–§7 for the serving architecture and examples/serving for
// a guided walkthrough of the API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"manirank/internal/fleet"
	"manirank/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	queue := flag.Int("queue", 64, "requests that may wait for a solver slot; past it a request answers 429")
	workers := flag.Int("workers", 0, "solver slots: at most this many solves run at once (0 = all CPUs)")
	solverWorkers := flag.Int("solver-workers", 1, "restart shards per individual solve (kemeny.Options.Workers); keep 1 under concurrent load")
	cacheSize := flag.Int("cache-size", 1024, "result cache capacity in entries (negative disables)")
	cacheDir := flag.String("cache-dir", "", "root a persistent cache tier here: results and matrices survive restarts (empty disables)")
	cacheEngineVersion := flag.String("cache-engine-version", "", "engine-behaviour version in the persistent cache namespace; bump to invalidate persisted entries (default "+service.DefaultEngineVersion+")")
	snapshotInterval := flag.Duration("cache-snapshot-interval", 0, "flush memory-resident cache entries to -cache-dir on this period (0 = only on graceful shutdown)")
	diskMiB := flag.Int("cache-disk-mib", 0, "disk budget for the persistent tier in MiB; oldest-read entries are evicted past it (0 = unbounded)")
	fleetSelf := flag.String("fleet-self", "", "this node's advertised base URL for fleet peering, e.g. http://10.0.0.1:8080 (empty = single node)")
	peers := flag.String("peers", "", "comma-separated base URLs of the other fleet replicas")
	fleetFetchTimeout := flag.Duration("fleet-fetch-timeout", 250*time.Millisecond, "bound on one peer cache read, hedge included")
	fleetProbeInterval := flag.Duration("fleet-probe-interval", 2*time.Second, "peer liveness probe period")
	precCacheMiB := flag.Int("prec-cache-mib", 16, "precedence-matrix cache budget in MiB (4 bytes per matrix cell; 0 disables)")
	deadline := flag.Duration("deadline", 30*time.Second, "default per-request compute deadline")
	maxDeadline := flag.Duration("max-deadline", 5*time.Minute, "upper bound on client-requested deadlines")
	maxSessions := flag.Int("max-sessions", 256, "bound on live streaming sessions (negative disables /v1/session)")
	traceSlowMS := flag.Int("trace-slow-ms", 0, "log any request at least this slow with its span breakdown (0 disables; traces land in /tracez regardless)")
	logLevel := flag.String("log-level", "info", "debug|info|warn|error")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate listener (e.g. localhost:6060); empty disables")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "manirankd: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	precCells := int64(-1) // 0 MiB: storage off (builds still coalesce)
	if *precCacheMiB > 0 {
		precCells = int64(*precCacheMiB) << 20 / 4 // int32-width cells; uint16 matrices use half
	}

	// Fleet peering (DESIGN.md §13): -fleet-self + -peers shard both cache
	// tiers across the replica set by rendezvous hashing. The fleet outlives
	// the server — it is closed after srv.Close so shutdown-time cache
	// flushes can still route.
	var ring *fleet.Fleet
	if *fleetSelf != "" || *peers != "" {
		if *fleetSelf == "" {
			fmt.Fprintln(os.Stderr, "manirankd: -peers requires -fleet-self")
			os.Exit(2)
		}
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		var err error
		ring, err = fleet.New(fleet.Config{
			Self:          *fleetSelf,
			Peers:         peerList,
			FetchTimeout:  *fleetFetchTimeout,
			ProbeInterval: *fleetProbeInterval,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "manirankd:", err)
			os.Exit(2)
		}
	}

	srv, err := service.New(service.Config{
		QueueDepth:       *queue,
		Workers:          *workers,
		SolverWorkers:    *solverWorkers,
		CacheSize:        *cacheSize,
		CacheDir:         *cacheDir,
		EngineVersion:    *cacheEngineVersion,
		SnapshotInterval: *snapshotInterval,
		DiskBudgetBytes:  int64(*diskMiB) << 20,
		Fleet:            ring,
		PrecCacheCells:   precCells,
		DefaultDeadline:  *deadline,
		MaxDeadline:      *maxDeadline,
		MaxSessions:      *maxSessions,
		TraceSlow:        time.Duration(*traceSlowMS) * time.Millisecond,
		Logger:           logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "manirankd:", err)
		os.Exit(2)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Profiling stays off the serving mux: it is opt-in (-pprof-addr) and
	// binds its own listener, so exposing /v1/aggregate never exposes
	// /debug/pprof with it. EXPERIMENTS.md documents capturing a solve-path
	// CPU profile against this endpoint.
	if *pprofAddr != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := &http.Server{Addr: *pprofAddr, Handler: pm}
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("pprof listener", "error", err)
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("shutting down")
		// Stop accepting and wait for in-flight handlers first (they hold
		// coalesced flights open), then wait out the running solves.
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Warn("shutdown", "error", err)
		}
		srv.Close()
		if ring != nil {
			ring.Close()
		}
	}()

	logger.Info("manirankd listening", "addr", *addr, "queue", *queue,
		"cache_size", *cacheSize, "prec_cache_mib", *precCacheMiB,
		"cache_dir", *cacheDir, "fleet_self", *fleetSelf)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "manirankd:", err)
		os.Exit(1)
	}
	<-done
}
