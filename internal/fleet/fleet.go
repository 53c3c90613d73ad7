// Package fleet shards the manirankd cache tiers across a set of replicas.
//
// Membership is static configuration: every node is launched with the same
// set of base URLs (its own via -fleet-self, the others via -peers) and the
// rendezvous ring in ring.go deterministically assigns each cache digest an
// owner among the nodes currently believed alive. The Fleet type layers the
// operational half on top of the pure ring: liveness probing with a small
// hysteresis state machine, an epoch counter that advances whenever the
// alive set changes, and the HTTP transport for the peer protocol — hedged,
// timeout-bounded GETs for result/matrix reads (a non-owner reads a digest's
// owner, an owner reads its runner-up) and a POST that asks a digest's owner
// to build a matrix under its own single-flight. No peer writes an entry
// into another.
//
// Every transport error degrades to local compute at the call site: a dead
// or slow peer can cost one bounded fetch timeout, never a failed request.
package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Peer-protocol constants shared by the client here and the handlers in
// internal/service.
const (
	// PathPrefix is the URL prefix of the peer API on every node.
	PathPrefix = "/internal/v1/peer/"
	// KindResults names the result-cache tier in peer URLs.
	KindResults = "results"
	// KindMatrices names the precedence-matrix tier in peer URLs.
	KindMatrices = "matrices"
	// NamespaceHeader carries the sender's cache namespace
	// ({digest-version}@engine-{v}); receivers reject mismatches with 412
	// so replicas running different engine versions can never exchange
	// stale entries. Same invalidation-by-addressing rule as the file
	// store, applied to the wire.
	NamespaceHeader = "X-Manirank-Cache-Namespace"

	failThreshold = 2 // consecutive failures before a peer is marked dead
)

// ErrNoPeer reports that a peer operation had no live target.
var ErrNoPeer = errors.New("fleet: no live peer")

// Config parameterises a Fleet. Zero durations take the listed defaults;
// ProbeInterval < 0 disables background probing (liveness then moves only
// on fetch outcomes and the MarkAlive/MarkDead test hooks).
type Config struct {
	// Self is this node's advertised base URL, e.g. "http://127.0.0.1:8081".
	// It participates in the ring like any peer.
	Self string
	// Peers are the other replicas' base URLs.
	Peers []string
	// FetchTimeout bounds one peer read end to end, hedge included
	// (default 250ms).
	FetchTimeout time.Duration
	// HedgeDelay is how long the first fetch leg runs alone before a
	// second is fired at the runner-up owner (default 40ms; < 0 disables
	// hedging).
	HedgeDelay time.Duration
	// BuildTimeout bounds a remote matrix build (default 3s — a build is
	// a real compute, not a cache read).
	BuildTimeout time.Duration
	// ProbeInterval is the liveness probe period (default 2s; < 0
	// disables the probe loop).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe (default 500ms).
	ProbeTimeout time.Duration
	// Client is the HTTP client for all peer traffic; a default client
	// is used when nil.
	Client *http.Client
	// Logger receives membership transitions; silent when nil.
	Logger *log.Logger
}

type peerState struct {
	alive bool
	fails int
}

// Fleet tracks the liveness of a statically configured replica set and
// speaks the peer cache protocol. All methods are safe for concurrent use.
type Fleet struct {
	cfg    Config
	nodes  []string // self + peers, sorted (ring input)
	client *http.Client

	mu        sync.Mutex
	namespace string
	peers     map[string]*peerState

	epoch  atomic.Uint64
	stop   chan struct{}
	probes sync.WaitGroup
}

// New validates cfg, applies defaults, and starts the probe loop (unless
// ProbeInterval < 0). Peers start optimistically alive: a node that boots
// before its peers should route to them as soon as they come up, and the
// first failed probe or fetch flips them dead within failThreshold strikes.
func New(cfg Config) (*Fleet, error) {
	if cfg.Self == "" {
		return nil, errors.New("fleet: Self is required")
	}
	if cfg.FetchTimeout == 0 {
		cfg.FetchTimeout = 250 * time.Millisecond
	}
	if cfg.HedgeDelay == 0 {
		cfg.HedgeDelay = 40 * time.Millisecond
	}
	if cfg.BuildTimeout == 0 {
		cfg.BuildTimeout = 3 * time.Second
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = 500 * time.Millisecond
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	f := &Fleet{
		cfg:    cfg,
		client: client,
		peers:  make(map[string]*peerState, len(cfg.Peers)),
		stop:   make(chan struct{}),
	}
	seen := map[string]bool{cfg.Self: true}
	f.nodes = append(f.nodes, cfg.Self)
	for _, p := range cfg.Peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		f.nodes = append(f.nodes, p)
		f.peers[p] = &peerState{alive: true}
	}
	sort.Strings(f.nodes)
	if cfg.ProbeInterval > 0 && len(f.peers) > 0 {
		f.probes.Add(1)
		go f.probeLoop()
	}
	return f, nil
}

// Close stops the probe loop. It does not wait for in-flight peer requests;
// their contexts bound them.
func (f *Fleet) Close() {
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	f.probes.Wait()
}

// Self returns this node's advertised base URL.
func (f *Fleet) Self() string { return f.cfg.Self }

// Nodes returns the full configured membership (alive or not), sorted.
func (f *Fleet) Nodes() []string { return append([]string(nil), f.nodes...) }

// SetNamespace installs the cache namespace stamped on every outgoing peer
// request and checked by this node's handlers. The service layer calls it
// once at startup with CacheNamespace(engineVersion).
func (f *Fleet) SetNamespace(ns string) {
	f.mu.Lock()
	f.namespace = ns
	f.mu.Unlock()
}

// Namespace returns the namespace installed by SetNamespace.
func (f *Fleet) Namespace() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.namespace
}

// Epoch returns the membership epoch: it starts at 0 and advances every
// time the alive set changes. /statz, /metricsz and tests read it.
func (f *Fleet) Epoch() uint64 { return f.epoch.Load() }

// alive reports whether node is currently believed alive. Self is always
// alive from its own point of view.
func (f *Fleet) aliveLocked(node string) bool {
	if node == f.cfg.Self {
		return true
	}
	ps := f.peers[node]
	return ps != nil && ps.alive
}

// Alive returns the currently-alive membership (self included), sorted.
func (f *Fleet) Alive() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.nodes))
	for _, n := range f.nodes {
		if f.aliveLocked(n) {
			out = append(out, n)
		}
	}
	return out
}

// PeerStatus is one row of the fleet section in /statz.
type PeerStatus struct {
	// Node is the peer's base URL.
	Node string `json:"node"`
	// Alive is the current liveness verdict.
	Alive bool `json:"alive"`
	// Fails is the current consecutive-failure count.
	Fails int `json:"fails"`
}

// PeerStatuses returns the liveness table for /statz, sorted by node.
func (f *Fleet) PeerStatuses() []PeerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]PeerStatus, 0, len(f.peers))
	for n, ps := range f.peers {
		out = append(out, PeerStatus{Node: n, Alive: ps.alive, Fails: ps.fails})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Route returns the alive rendezvous owner of key and whether it is this
// node. A fleet whose peers are all dead routes everything to self.
func (f *Fleet) Route(key string) (owner string, self bool) {
	f.mu.Lock()
	owner = Owner(f.nodes, key, f.aliveLocked)
	f.mu.Unlock()
	return owner, owner == f.cfg.Self
}

// fetchTargets returns the alive non-self nodes to try for key, best owner
// first, at most two (primary + hedge). For a key this node owns, the first
// is the runner-up: the node that owns key whenever this one is dead.
func (f *Fleet) fetchTargets(key string) []string {
	f.mu.Lock()
	ranked := Owners(f.nodes, key, len(f.nodes), f.aliveLocked)
	f.mu.Unlock()
	out := make([]string, 0, 2)
	for _, n := range ranked {
		if n == f.cfg.Self {
			continue
		}
		out = append(out, n)
		if len(out) == 2 {
			break
		}
	}
	return out
}

// MarkAlive forces node alive. Exported for tests; the probe loop and
// fetch outcomes normally drive these transitions.
func (f *Fleet) MarkAlive(node string) { f.recordSuccess(node) }

// MarkDead forces node dead immediately, bypassing the failure threshold.
func (f *Fleet) MarkDead(node string) {
	f.mu.Lock()
	ps := f.peers[node]
	changed := ps != nil && ps.alive
	if ps != nil {
		ps.alive = false
		ps.fails = failThreshold
	}
	f.mu.Unlock()
	if changed {
		f.membershipChanged(node, false)
	}
}

func (f *Fleet) recordSuccess(node string) {
	f.mu.Lock()
	ps := f.peers[node]
	changed := ps != nil && !ps.alive
	if ps != nil {
		ps.alive = true
		ps.fails = 0
	}
	f.mu.Unlock()
	if changed {
		f.membershipChanged(node, true)
	}
}

func (f *Fleet) recordFailure(node string) {
	f.mu.Lock()
	ps := f.peers[node]
	changed := false
	if ps != nil {
		ps.fails++
		if ps.alive && ps.fails >= failThreshold {
			ps.alive = false
			changed = true
		}
	}
	f.mu.Unlock()
	if changed {
		f.membershipChanged(node, false)
	}
}

func (f *Fleet) membershipChanged(node string, alive bool) {
	f.epoch.Add(1)
	if f.cfg.Logger != nil {
		verdict := "dead"
		if alive {
			verdict = "alive"
		}
		f.cfg.Logger.Printf("fleet: peer %s marked %s (epoch %d)", node, verdict, f.Epoch())
	}
}

func (f *Fleet) probeLoop() {
	defer f.probes.Done()
	t := time.NewTicker(f.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			f.probeAll()
		}
	}
}

func (f *Fleet) probeAll() {
	f.mu.Lock()
	targets := make([]string, 0, len(f.peers))
	for n := range f.peers {
		targets = append(targets, n)
	}
	f.mu.Unlock()
	var wg sync.WaitGroup
	for _, n := range targets {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), f.cfg.ProbeTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/healthz", nil)
			if err != nil {
				f.recordFailure(node)
				return
			}
			resp, err := f.client.Do(req)
			if err != nil {
				f.recordFailure(node)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				f.recordSuccess(node)
			} else {
				f.recordFailure(node)
			}
		}(n)
	}
	wg.Wait()
}

// --- peer transport -------------------------------------------------------

type fetchOutcome struct {
	payload []byte
	found   bool
	err     error
}

// Fetch performs a hedged, timeout-bounded read of digest from the first
// alive node other than this one in rendezvous order — its owner, or its
// runner-up when this node owns it (kind is KindResults or KindMatrices).
// It returns (payload, true, nil) on a peer hit, (nil, false, nil) on an
// authoritative peer miss (404), and a non-nil error when no leg produced a
// verdict — the caller computes locally in every non-hit case. Transport
// errors feed the liveness state machine; misses and namespace rejections
// do not.
func (f *Fleet) Fetch(ctx context.Context, kind, digest string) ([]byte, bool, error) {
	targets := f.fetchTargets(digest)
	if len(targets) == 0 {
		return nil, false, ErrNoPeer
	}
	ctx, cancel := context.WithTimeout(ctx, f.cfg.FetchTimeout)
	defer cancel()

	results := make(chan fetchOutcome, len(targets))
	leg := func(node string) {
		payload, found, err := f.getOnce(ctx, node, kind, digest)
		if err != nil && ctx.Err() == nil {
			f.recordFailure(node)
		} else if err == nil {
			f.recordSuccess(node)
		}
		results <- fetchOutcome{payload, found, err}
	}

	go leg(targets[0])
	legs := 1
	var hedge <-chan time.Time
	if len(targets) > 1 && f.cfg.HedgeDelay >= 0 {
		ht := time.NewTimer(f.cfg.HedgeDelay)
		defer ht.Stop()
		hedge = ht.C
	}

	var firstErr error
	for done := 0; done < legs; {
		select {
		case <-hedge:
			hedge = nil
			go leg(targets[1])
			legs++
		case out := <-results:
			done++
			if out.err == nil {
				return out.payload, out.found, nil
			}
			if firstErr == nil {
				firstErr = out.err
			}
			// A failed primary leg should not sit out the hedge delay.
			if hedge != nil {
				hedge = nil
				go leg(targets[1])
				legs++
			}
		case <-ctx.Done():
			if firstErr == nil {
				firstErr = ctx.Err()
			}
			return nil, false, firstErr
		}
	}
	return nil, false, firstErr
}

func (f *Fleet) getOnce(ctx context.Context, node, kind, digest string) ([]byte, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.peerURL(node, kind, digest), nil)
	if err != nil {
		return nil, false, err
	}
	req.Header.Set(NamespaceHeader, f.Namespace())
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		payload, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, false, err
		}
		return payload, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("fleet: peer %s: %s %s: status %d", node, kind, digest, resp.StatusCode)
	}
}

// BuildMatrix asks owner to build the precedence matrix for digest from the
// posted profile (the service-layer JSON encoding) under the owner's own
// single-flight, returning the serialized matrix. Unlike Fetch this is a
// compute request: no hedging (two owners building would defeat the one
// build per ring the call exists for), a longer timeout, and only transport
// errors — not application rejections — count against liveness.
func (f *Fleet) BuildMatrix(ctx context.Context, owner, digest string, profile []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, f.cfg.BuildTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.peerURL(owner, KindMatrices, digest), bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	req.Header.Set(NamespaceHeader, f.Namespace())
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			f.recordFailure(owner)
		}
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	f.recordSuccess(owner)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: peer build %s on %s: status %d", digest, owner, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

func (f *Fleet) peerURL(node, kind, digest string) string {
	return node + PathPrefix + kind + "/" + digest
}
