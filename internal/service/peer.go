package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"manirank/internal/fleet"
	"manirank/internal/ranking"
	"manirank/internal/service/cache"
)

// This file is the serving side of the fleet (DESIGN.md §13): the
// /internal/v1/peer/{results|matrices}/{digest} handlers a replica answers
// ring mates on, the cache fetch hooks that consult a digest's rendezvous
// owner before computing locally, the after-compute push that homes a
// non-owner's result with its owner, and the bounded re-owned-key warming
// that runs on membership change.
//
// The peer API is internal by construction — it trusts its callers the way
// the file store trusts the filesystem — with two cheap integrity gates:
// every request carries the sender's cache namespace (412 on mismatch, so
// replicas on different engine versions can never exchange entries), and a
// posted profile must hash to the digest it claims (400 otherwise), so a
// confused client cannot poison the matrix tier.

// peerPushConcurrency bounds concurrent background pushes (after-compute
// homing and re-owned-key warming share the budget).
const peerPushConcurrency = 4

// handlePeer serves the peer cache protocol:
//
//	GET  /internal/v1/peer/{kind}/{digest}  -> 200 entry bytes | 404 authoritative miss
//	PUT  /internal/v1/peer/{kind}/{digest}  -> 204 entry admitted
//	POST /internal/v1/peer/matrices/{digest} (profile JSON) -> 200 matrix bytes,
//	     built under this node's single-flight — the per-ring single-compute path.
//
// Reads go through Peek, which serves memory and disk without moving this
// node's own hit/miss counters: a peer's traffic is accounted on the peer.
func (s *Server) handlePeer(w http.ResponseWriter, r *http.Request) {
	if s.fleet == nil {
		http.NotFound(w, r)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, fleet.PathPrefix)
	kind, digest, ok := strings.Cut(rest, "/")
	if !ok || digest == "" || strings.Contains(digest, "/") {
		http.NotFound(w, r)
		return
	}
	if ns := r.Header.Get(fleet.NamespaceHeader); ns != s.fleet.Namespace() {
		http.Error(w, fmt.Sprintf("cache namespace %q does not match %q", ns, s.fleet.Namespace()),
			http.StatusPreconditionFailed)
		return
	}
	switch {
	case kind == fleet.KindResults:
		if !servePeerEntry(w, r, digest, s.cfg.MaxBodyBytes, s.cache, resultCodec(), checkPushedResult) {
			http.Error(w, "use GET or PUT", http.StatusMethodNotAllowed)
		}
	case kind == fleet.KindMatrices && r.Method == http.MethodPost:
		s.handlePeerBuild(w, r, digest)
	case kind == fleet.KindMatrices:
		if !servePeerEntry(w, r, digest, s.cfg.MaxBodyBytes, s.prec, matrixCodec(), nil) {
			http.Error(w, "use GET, PUT, or POST", http.StatusMethodNotAllowed)
		}
	default:
		http.NotFound(w, r)
	}
}

// servePeerEntry answers a ring mate's GET (the entry from memory or disk,
// 404 on an authoritative miss) or PUT (admit a pushed entry once it decodes
// and, when check is non-nil, passes check) on tier. It reports false,
// having written nothing, for any other method.
func servePeerEntry[V any](w http.ResponseWriter, r *http.Request, digest string, maxBody int64,
	tier *cache.Tier[V], codec cache.Codec[V], check func(V) error) bool {
	switch r.Method {
	case http.MethodGet:
		v, ok := tier.Peek(r.Context(), digest)
		if !ok {
			http.NotFound(w, r)
			return true
		}
		data, err := codec.Encode(v)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return true
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data)
	case http.MethodPut:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return true
		}
		v, err := codec.Decode(body)
		if err == nil && check != nil {
			err = check(v)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return true
		}
		tier.Put(r.Context(), digest, v)
		w.WriteHeader(http.StatusNoContent)
	default:
		return false
	}
	return true
}

// checkPushedResult vets a result a peer pushed or is about to be pushed:
// partial results are never cached locally, and the same rule holds for
// pushed entries regardless of what the sender thought.
func checkPushedResult(res *result) error {
	if res.Partial {
		return errors.New("partial results are not cacheable")
	}
	return nil
}

// handlePeerBuild builds (or serves) the precedence matrix of the posted
// profile under this node's matrix tier — including its single-flight, so
// a stampede of non-owners asking for one unseen profile still pays one
// construction ring-wide. The profile must hash to the digest it was posted
// under: the digest is the cache key every replica will trust forever, so
// it is verified here, not assumed.
func (s *Server) handlePeerBuild(w http.ResponseWriter, r *http.Request, digest string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var rows ProfileRows
	if err := json.Unmarshal(body, &rows); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	profile := make(ranking.Profile, len(rows))
	for i, row := range rows {
		profile[i] = row
	}
	if got := profile.Digest(digestVersion + "/profile"); got != digest {
		http.Error(w, fmt.Sprintf("profile hashes to %s, not %s", got, digest), http.StatusBadRequest)
		return
	}
	// The owner's tier sees its shard's demand here exactly as if the
	// request had arrived on its own front door, popularity model included.
	s.cheMatrix.Observe(digest)
	m, _, _, err := s.prec.Do(r.Context(), digest, func() (*ranking.Precedence, bool, error) {
		m, err := ranking.NewPrecedence(profile)
		return m, true, err
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	data, err := matrixCodec().Encode(m)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

// peerFetch returns a tier's fleet hook for digest, or nil without a
// fleet. The hook asks the digest's owner (hedged to the runner-up) only
// when this node does not own the digest itself; onMiss, when non-nil,
// turns the owner's authoritative miss into the payload it returns.
func peerFetch[V any](f *fleet.Fleet, kind, digest string, codec cache.Codec[V],
	onMiss func(ctx context.Context, owner string) ([]byte, error)) cache.FetchFunc[V] {
	if f == nil {
		return nil
	}
	return func(ctx context.Context) (v V, found bool, err error) {
		owner, self := f.Route(digest)
		if self {
			return v, false, cache.ErrNotAsked
		}
		payload, found, err := f.Fetch(ctx, kind, digest)
		switch {
		case errors.Is(err, fleet.ErrNoPeer):
			return v, false, cache.ErrNotAsked
		case err != nil:
			return v, false, err
		case !found && onMiss == nil:
			return v, false, nil
		case !found:
			if payload, err = onMiss(ctx, owner); err != nil {
				return v, false, err
			}
		}
		v, err = codec.Decode(payload)
		return v, err == nil, err
	}
}

// resultFetch returns the result tier's fleet hook for digest: a plain
// owner read, stopping at an authoritative miss.
func (s *Server) resultFetch(digest string) cache.FetchFunc[*result] {
	return peerFetch(s.fleet, fleet.KindResults, digest, resultCodec(), nil)
}

// matrixFetch returns the matrix tier's fleet hook for pb. Where the result
// hook stops at an authoritative miss, the matrix hook escalates: on a 404
// from the owner it POSTs the profile so the OWNER builds (under its own
// single-flight) and returns the serialized matrix — per-node single-flight
// extended into per-ring single-compute. Every failure degrades to a local
// build.
func (s *Server) matrixFetch(pb *problem) cache.FetchFunc[*ranking.Precedence] {
	return peerFetch(s.fleet, fleet.KindMatrices, pb.profDigest, matrixCodec(),
		func(ctx context.Context, owner string) ([]byte, error) {
			profJSON, err := json.Marshal(pb.profile)
			if err != nil {
				return nil, err
			}
			return s.fleet.BuildMatrix(ctx, owner, pb.profDigest, profJSON)
		})
}

// pushResult homes a locally computed result with its ring owner in the
// background, so the next node that misses on this digest finds it where
// the ring says to look. Best effort and bounded: when the push budget is
// saturated the entry simply stays local (write-through still persisted it
// here).
func (s *Server) pushResult(digest string, res *result) {
	if s.fleet == nil || res.Partial {
		return
	}
	owner, self := s.fleet.Route(digest)
	if self {
		return
	}
	data, err := resultCodec().Encode(res)
	if err != nil {
		return
	}
	select {
	case s.pushSem <- struct{}{}:
	default:
		return // saturated: skip, never block a request path
	}
	go func() {
		defer func() { <-s.pushSem }()
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DefaultDeadline)
		defer cancel()
		s.fleet.Push(ctx, owner, fleet.KindResults, digest, data)
	}()
}

// warmReowned runs after every membership change: it walks this node's
// resident keys in both tiers and pushes the entries whose rendezvous owner
// is now a DIFFERENT alive node to that owner, capped at the fleet's
// WarmLimit and bounded by the shared push budget. This is the stampede
// protection: when a node joins (or a dead one returns), the keys it now
// owns arrive as pushed entries from the replicas that served them so far,
// instead of every one being rebuilt on first touch; when a node dies, its
// keys re-home to runners-up the same way from wherever they are resident.
func (s *Server) warmReowned() {
	f := s.fleet
	limit := f.WarmLimit()
	if limit <= 0 {
		return
	}
	epoch := f.Epoch()
	warmed := 0
	push := func(kind, key string, encode func() ([]byte, bool)) bool {
		if warmed >= limit {
			return false
		}
		owner, self := f.Route(key)
		if self {
			return true
		}
		data, ok := encode()
		if !ok {
			return true
		}
		warmed++
		s.peerWarms.Inc()
		s.pushSem <- struct{}{} // block: warming is background work, shedding it defeats it
		go func() {
			defer func() { <-s.pushSem }()
			ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DefaultDeadline)
			defer cancel()
			f.Push(ctx, owner, kind, key, data)
		}()
		return true
	}
	warmTier(s.prec, fleet.KindMatrices, matrixCodec(), nil, push)
	warmTier(s.cache, fleet.KindResults, resultCodec(), checkPushedResult, push)
	if warmed > 0 {
		s.log.Info("fleet warm push", "epoch", epoch, "entries", warmed, "limit", limit)
	}
}

// warmTier offers each of tier's resident entries to push, encoded on
// demand and skipped when check (if non-nil) rejects it, until push stops
// accepting entries.
func warmTier[V any](tier *cache.Tier[V], kind string, codec cache.Codec[V], check func(V) error,
	push func(kind, key string, encode func() ([]byte, bool)) bool) {
	ctx := context.Background()
	for _, key := range tier.Keys() {
		if !push(kind, key, func() ([]byte, bool) {
			v, ok := tier.Peek(ctx, key)
			if !ok || (check != nil && check(v) != nil) {
				return nil, false
			}
			data, err := codec.Encode(v)
			return data, err == nil
		}) {
			return
		}
	}
}

// FleetStatz is the /statz fleet section.
type FleetStatz struct {
	// Self is this node's advertised base URL.
	Self string `json:"self"`
	// Epoch is the membership epoch (bumps on every alive-set change).
	Epoch uint64 `json:"epoch"`
	// Nodes is the configured fleet size, self included.
	Nodes int `json:"nodes"`
	// Alive is the currently-alive node count, self included.
	Alive int `json:"alive"`
	// Peers is the per-peer liveness table.
	Peers []fleet.PeerStatus `json:"peers"`
}

// fleetStatz assembles the /statz fleet section (nil without a fleet).
func (s *Server) fleetStatz() *FleetStatz {
	if s.fleet == nil {
		return nil
	}
	return &FleetStatz{
		Self:  s.fleet.Self(),
		Epoch: s.fleet.Epoch(),
		Nodes: len(s.fleet.Nodes()),
		Alive: len(s.fleet.Alive()),
		Peers: s.fleet.PeerStatuses(),
	}
}
