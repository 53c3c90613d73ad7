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
// ring mates on, and the cache fetch hooks a replica runs before computing
// locally. Entries move between replicas only by being read: a non-owner
// reads a digest from its rendezvous owner, and an owner that misses reads
// it from its runner-up — the node that held the digest while this one was
// away. A result computed on a non-owner stays there.
//
// The peer API is internal by construction — it trusts its callers the way
// the file store trusts the filesystem — with two cheap integrity gates:
// every request carries the sender's cache namespace (412 on mismatch, so
// replicas on different engine versions can never exchange entries), and a
// posted profile must hash to the digest it claims (400 otherwise), so a
// confused client cannot poison the matrix tier. What a peer answers is
// vetted too: an entry must decode and fit the request that asked for it,
// or the read counts as a peer error and the node computes locally.

// handlePeer serves the peer cache protocol:
//
//	GET  /internal/v1/peer/{kind}/{digest}  -> 200 entry bytes | 404 authoritative miss
//	POST /internal/v1/peer/matrices/{digest} (profile JSON) -> 200 matrix bytes,
//	     built under this node's single-flight — the per-ring single-compute path.
//
// Any other method answers 405: no peer can write an entry into this node.
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
	case kind != fleet.KindResults && kind != fleet.KindMatrices:
		http.NotFound(w, r)
	case kind == fleet.KindMatrices && r.Method == http.MethodPost:
		s.handlePeerBuild(w, r, digest)
	case r.Method != http.MethodGet:
		http.Error(w, "peer entries are read-only: use GET", http.StatusMethodNotAllowed)
	case kind == fleet.KindResults:
		servePeerEntry(w, r, digest, s.cache, resultCodec())
	default:
		servePeerEntry(w, r, digest, s.prec, matrixCodec())
	}
}

// servePeerEntry answers a ring mate's GET with the entry from memory or
// disk, or 404 on an authoritative miss.
func servePeerEntry[V any](w http.ResponseWriter, r *http.Request, digest string,
	tier *cache.Tier[V], codec cache.Codec[V]) {
	v, ok := tier.Peek(r.Context(), digest)
	if !ok {
		http.NotFound(w, r)
		return
	}
	data, err := codec.Encode(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
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
	profile := rows.profile()
	if got := profileDigest(profile); got != digest {
		http.Error(w, fmt.Sprintf("profile hashes to %s, not %s", got, digest), http.StatusBadRequest)
		return
	}
	// The owner's tier sees its shard's demand here exactly as if the
	// request had arrived on its own front door, popularity model and
	// runner-up read included. The read is plain: this node is the builder,
	// and two nodes whose views of the owner disagree must never post builds
	// to each other.
	m, err := s.precedence(r.Context(), digest, profile,
		peerFetch(s.fleet, fleet.KindMatrices, digest, matrixCodec(), matrixFits(profile), nil))
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
// fleet. The hook reads digest from the first alive node other than this
// one in rendezvous order (hedged to the next): the owner when this node
// does not own digest, and otherwise the runner-up, which owned digest
// whenever this node was dead. fits vets a decoded entry against the
// request; a misfit counts as a peer error. onMiss, when non-nil, turns a
// non-owner's authoritative miss into the payload it returns; an owner that
// misses computes locally.
func peerFetch[V any](f *fleet.Fleet, kind, digest string, codec cache.Codec[V], fits func(V) error,
	onMiss func(ctx context.Context, owner string) ([]byte, error)) cache.FetchFunc[V] {
	if f == nil {
		return nil
	}
	return func(ctx context.Context) (v V, found bool, err error) {
		owner, self := f.Route(digest)
		payload, found, err := f.Fetch(ctx, kind, digest)
		switch {
		case errors.Is(err, fleet.ErrNoPeer):
			return v, false, cache.ErrNotAsked
		case err != nil:
			return v, false, err
		case !found && (self || onMiss == nil):
			return v, false, nil
		case !found:
			if payload, err = onMiss(ctx, owner); err != nil {
				return v, false, err
			}
		}
		if v, err = codec.Decode(payload); err == nil {
			err = fits(v)
		}
		return v, err == nil, err
	}
}

// resultFetch returns the result tier's fleet hook for pb: a plain peer
// read, stopping at an authoritative miss, that admits only a complete
// result ranking pb's candidates under pb's method.
func (s *Server) resultFetch(pb *problem) cache.FetchFunc[*result] {
	return peerFetch(s.fleet, fleet.KindResults, pb.digest, resultCodec(), func(r *result) error {
		switch {
		case r.Partial:
			return errors.New("service: peer result is partial")
		case len(r.Ranking) != pb.profile.N():
			return fmt.Errorf("service: peer result ranks %d candidates, the request has %d",
				len(r.Ranking), pb.profile.N())
		case r.Method != pb.method.String():
			return fmt.Errorf("service: peer result is for method %q, not %q", r.Method, pb.method)
		}
		return nil
	}, nil)
}

// matrixFetch returns the matrix tier's fleet hook for pb, admitting only a
// matrix over pb's candidate and ranking counts. Where the result hook stops
// at an authoritative miss, a non-owner's matrix hook escalates: on a 404
// from the owner it POSTs the profile so the OWNER builds (under its own
// single-flight) and returns the serialized matrix — per-node single-flight
// extended into per-ring single-compute. Every failure degrades to a local
// build.
func (s *Server) matrixFetch(pb *problem) cache.FetchFunc[*ranking.Precedence] {
	return peerFetch(s.fleet, fleet.KindMatrices, pb.profDigest, matrixCodec(), matrixFits(pb.profile),
		func(ctx context.Context, owner string) ([]byte, error) {
			profJSON, err := json.Marshal(pb.profile)
			if err != nil {
				return nil, err
			}
			return s.fleet.BuildMatrix(ctx, owner, pb.profDigest, profJSON)
		})
}

// matrixFits returns the check a peer's matrix for profile must pass: the
// profile's candidate and ranking counts.
func matrixFits(profile ranking.Profile) func(*ranking.Precedence) error {
	return func(w *ranking.Precedence) error {
		if w.N() != profile.N() || w.Rankings() != len(profile) {
			return fmt.Errorf("service: peer matrix is %d candidates × %d rankings, the profile %d × %d",
				w.N(), w.Rankings(), profile.N(), len(profile))
		}
		return nil
	}
}
