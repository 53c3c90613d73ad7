package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"manirank"
	"manirank/internal/obs"
	"manirank/internal/ranking"
)

// This file is the streaming-profile surface of manirankd (DESIGN.md §12):
// a session pins one evolving profile server-side, every mutation patches
// the session engine's precedence matrix in O(n²) instead of re-paying the
// O(n²·m) rebuild a stateless re-POST costs, and every re-solve warm-starts
// from the previous consensus. Results flow through the same result cache,
// worker pool, and deadline machinery as /v1/aggregate — keyed by
// SessionDigests so a mutated profile (or a different warm seed) can never
// be served a stale entry, and patched matrices are written through to the
// matrix tier under the post-mutation profile digest.

// session is one live streaming profile.
type session struct {
	id string
	// mu serialises operations on this session: a mutation and the re-solve
	// it triggers form one critical section, so concurrent clients of one
	// session observe a linear history. The engine additionally guards its
	// matrix with its own RWMutex, so even a misbehaving interleaving could
	// never give a solver a half-applied mutation.
	mu sync.Mutex
	// req mirrors the session's current state in wire form; Digests over it
	// always reflect the post-mutation profile.
	req *AggregateRequest
	// eng holds the session's profile, table, and incrementally patched
	// matrix.
	eng *manirank.Engine
	// consensus is the last complete (non-partial) consensus over any state.
	// Nil until the first complete solve.
	consensus ranking.Ranking
	// warmSeed is the warm-start seed pinned to the CURRENT profile state
	// (engine version seedVersion): the consensus of the previous state. It
	// is chosen once per state — re-solves of an unchanged state reuse it,
	// so their digests agree and the result cache serves them — and
	// re-chosen from consensus the first time a new state solves.
	warmSeed    ranking.Ranking
	seedVersion uint64
	seedValid   bool
	// putVersion is the engine version last written through to the matrix
	// tier, so unchanged profiles aren't re-persisted on every solve.
	putVersion uint64
	putOnce    bool
	created    time.Time
}

// SessionOp is the POST /v1/session/{id} body: one mutation (or a bare
// re-solve) followed by a fresh consensus over the session's new state.
type SessionOp struct {
	// Op is one of "add", "remove", "update", "solve".
	Op string `json:"op"`
	// Ranking is the base ranking for add/update: a permutation of 0..n-1.
	Ranking []int `json:"ranking,omitempty"`
	// Index addresses the profile row for remove/update.
	Index int `json:"index,omitempty"`
	// DeadlineMillis caps this op's re-solve like the aggregate field; on
	// expiry the response is the best-so-far consensus, flagged partial and
	// never cached. The mutation itself is durable either way.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// SessionResponse is the body of every session solve: the usual aggregate
// payload plus the session identity and state version.
type SessionResponse struct {
	SessionID string `json:"session_id"`
	// Version counts mutations applied to the session so far.
	Version uint64 `json:"version"`
	// Rankers is the current profile size.
	Rankers int `json:"rankers"`
	// WarmStarted reports whether this solve was seeded with the previous
	// consensus (false on the first solve and after a warm seed of the wrong
	// length, e.g. never here — sessions keep n fixed).
	WarmStarted bool `json:"warm_started"`
	AggregateResponse
}

// SessionInfo is the GET /v1/session/{id} body.
type SessionInfo struct {
	SessionID  string  `json:"session_id"`
	Method     string  `json:"method"`
	Candidates int     `json:"candidates"`
	Rankers    int     `json:"rankers"`
	Version    uint64  `json:"version"`
	AgeSeconds float64 `json:"age_s"`
}

// errSessionsFull rejects session creation beyond Config.MaxSessions.
var errSessionsFull = errors.New("service: session limit reached")

// newSessionID returns a 128-bit random hex session id.
func newSessionID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// handleSessionCreate is POST /v1/session: validate an aggregate request,
// pin it as a session (engine over the shared matrix tier), and answer with
// the initial consensus.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		s.writeError(w, r, http.StatusMethodNotAllowed, errors.New("use POST"), start)
		return
	}
	if s.cfg.MaxSessions == 0 {
		s.writeError(w, r, http.StatusNotFound, errors.New("sessions disabled"), start)
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

	// The session's matrix comes through the shared tier (a seen profile
	// skips the build); the engine copy-on-writes on the first mutation, so
	// the cache-resident matrix is never corrupted.
	tr := obs.NewTrace("session-create/"+pb.method.String(), pb.digest[:12])
	budget := s.deadline(&req)
	mctx, cancel := context.WithTimeout(obs.WithTrace(r.Context(), tr), budget)
	w0, err := s.precedence(mctx, pb)
	cancel()
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err, start)
		s.finishTrace(tr)
		return
	}
	var opts []manirank.EngineOption
	if pb.tab != nil {
		opts = append(opts, manirank.WithTable(pb.tab))
	}
	eng, err := manirank.NewEngineWithMatrix(pb.profile, w0, opts...)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err, start)
		s.finishTrace(tr)
		return
	}
	id, err := newSessionID()
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err, start)
		s.finishTrace(tr)
		return
	}
	sess := &session{id: id, req: &req, eng: eng, created: time.Now()}

	s.sessMu.Lock()
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.sessMu.Unlock()
		s.writeError(w, r, http.StatusTooManyRequests, errSessionsFull, start)
		s.finishTrace(tr)
		return
	}
	s.sessions[id] = sess
	s.sessMu.Unlock()
	s.sessionOps["create"].Inc()

	sess.mu.Lock()
	resp, status, err := s.solveSession(r.Context(), tr, sess, budget)
	sess.mu.Unlock()
	if err != nil {
		s.writeError(w, r, status, err, start)
		s.finishTrace(tr)
		return
	}
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	s.countStatus(http.StatusOK)
	s.log.Info("session create",
		"session", id[:12], "method", pb.method.String(),
		"n", pb.profile.N(), "rankers", len(pb.profile),
		"elapsed_ms", resp.ElapsedMS)
	endEncode := tr.StartSpan("encode")
	writeJSON(w, http.StatusOK, resp)
	endEncode()
	s.finishTrace(tr)
}

// handleSession routes /v1/session/{id}: POST applies one SessionOp and
// re-solves, GET describes the session, DELETE ends it.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := strings.TrimPrefix(r.URL.Path, "/v1/session/")
	if id == "" || strings.Contains(id, "/") {
		s.writeError(w, r, http.StatusNotFound, errors.New("malformed session path"), start)
		return
	}
	s.sessMu.Lock()
	sess := s.sessions[id]
	s.sessMu.Unlock()
	if sess == nil {
		s.writeError(w, r, http.StatusNotFound, fmt.Errorf("unknown session %q", id), start)
		return
	}
	switch r.Method {
	case http.MethodGet:
		sess.mu.Lock()
		info := SessionInfo{
			SessionID:  sess.id,
			Method:     sess.req.Method,
			Candidates: sess.eng.N(),
			Rankers:    len(sess.req.Profile),
			Version:    sess.eng.Version(),
			AgeSeconds: time.Since(sess.created).Seconds(),
		}
		sess.mu.Unlock()
		writeJSON(w, http.StatusOK, info)
	case http.MethodDelete:
		s.sessMu.Lock()
		delete(s.sessions, id)
		s.sessMu.Unlock()
		s.sessionOps["delete"].Inc()
		s.countStatus(http.StatusOK)
		writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
	case http.MethodPost:
		s.handleSessionOp(w, r, sess, start)
	default:
		s.writeError(w, r, http.StatusMethodNotAllowed, errors.New("use POST, GET, or DELETE"), start)
	}
}

// handleSessionOp applies one mutation (or a bare re-solve) and answers
// with the fresh consensus over the session's new state.
func (s *Server) handleSessionOp(w http.ResponseWriter, r *http.Request, sess *session, start time.Time) {
	var op SessionOp
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&op); err != nil {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("decoding op: %w", err), start)
		return
	}
	opc, ok := s.sessionOps[op.Op]
	if !ok || op.Op == "create" || op.Op == "delete" {
		s.writeError(w, r, http.StatusBadRequest,
			fmt.Errorf("unknown op %q (want add, remove, update, or solve)", op.Op), start)
		return
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()
	// Apply the mutation to the engine (O(n²) matrix patch) and mirror it
	// into the wire-form request, whose digest then names the new state.
	var err error
	switch op.Op {
	case "add":
		if err = sess.eng.AddRanking(ranking.Ranking(op.Ranking)); err == nil {
			sess.req.Profile = append(sess.req.Profile, op.Ranking)
		}
	case "remove":
		// The engine tolerates an empty profile; the serving surface does not
		// (buildProblem rejects it), so refuse the removal that would strand
		// the session unsolvable — before touching the matrix.
		if len(sess.req.Profile) == 1 {
			err = errors.New("cannot remove the last ranking of a session")
			break
		}
		if _, err = sess.eng.RemoveRanking(op.Index); err == nil {
			sess.req.Profile = append(sess.req.Profile[:op.Index], sess.req.Profile[op.Index+1:]...)
		}
	case "update":
		if err = sess.eng.UpdateRanking(op.Index, ranking.Ranking(op.Ranking)); err == nil {
			sess.req.Profile[op.Index] = op.Ranking
		}
	case "solve":
		// No mutation; just re-solve (possibly with a different deadline).
	}
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err, start)
		return
	}
	opc.Inc()

	deadline := s.cfg.DefaultDeadline
	if op.DeadlineMillis > 0 {
		deadline = time.Duration(op.DeadlineMillis) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	tr := obs.NewTrace("session-"+op.Op+"/"+sess.req.Method, sess.id[:12])
	resp, status, serr := s.solveSession(r.Context(), tr, sess, deadline)
	if serr != nil {
		s.writeError(w, r, status, serr, start)
		s.finishTrace(tr)
		return
	}
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	s.countStatus(http.StatusOK)
	s.log.Info("session op",
		"session", sess.id[:12], "op", op.Op,
		"rankers", len(sess.req.Profile), "version", resp.Version,
		"warm", resp.WarmStarted, "partial", resp.Partial,
		"cached", resp.Cached, "elapsed_ms", resp.ElapsedMS)
	endEncode := tr.StartSpan("encode")
	writeJSON(w, http.StatusOK, resp)
	endEncode()
	s.finishTrace(tr)
}

// solveSession re-solves the session's current state through the shared
// result cache and worker pool, warm-started from the previous consensus.
// The caller holds sess.mu. Returns the response, or an HTTP status plus
// error.
func (s *Server) solveSession(rctx context.Context, tr *obs.Trace, sess *session, budget time.Duration) (*SessionResponse, int, error) {
	pb, err := buildProblem(sess.req)
	if err != nil {
		// The mirror was mutated through the same validation as the engine,
		// so this is unreachable short of a bug; surface it loudly.
		return nil, http.StatusInternalServerError, fmt.Errorf("session state invalid: %w", err)
	}
	// Pin the warm seed for this profile state: first solve of a new state
	// adopts the previous state's consensus, re-solves of an unchanged state
	// keep the seed (and therefore the digest) stable so the result cache
	// can serve them.
	if v := sess.eng.Version(); !sess.seedValid || sess.seedVersion != v {
		sess.warmSeed = sess.consensus
		sess.seedVersion, sess.seedValid = v, true
	}
	warm := sess.warmSeed
	warmStarted := len(warm) == sess.eng.N()
	digest, profDigest := SessionDigests(sess.req, warm)
	s.cheResult.Observe(digest)

	eng := sess.eng
	kopts := s.kemenyOptions(pb.opts)
	kopts.Heuristic.Warm = warm
	run := func(ctx context.Context) (*result, error) {
		sr, err := eng.Solve(ctx, pb.method, pb.targets, manirank.WithKemenyOptions(kopts))
		if err != nil {
			return nil, err
		}
		return buildResult(sr, pb), nil
	}

	waitCtx, cancelWait := context.WithTimeout(rctx, budget)
	defer cancelWait()
	waitCtx = obs.WithTrace(waitCtx, tr)
	res, hit, shared, err := s.cache.Do(waitCtx, digest, func() (*result, bool, error) {
		res, err := s.admit(tr, pb, budget, run)
		if err != nil {
			return nil, false, err
		}
		// Partial (deadline-truncated) results are never cached, here
		// exactly as on the stateless path.
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
		return nil, status, err
	}

	if !res.Partial {
		// Record the consensus (the NEXT state's warm seed — this state's
		// seed stays pinned so re-solve digests remain stable), and write the
		// session's (incrementally patched, bitwise-equal-to-rebuilt) matrix
		// through to the matrix tier under the post-mutation profile digest
		// — never the digest the session was created with — so a restarted
		// server warm-restores the state the session actually reached.
		sess.consensus = res.Ranking
		if v := eng.Version(); !sess.putOnce || v != sess.putVersion {
			w := eng.PrecedenceSnapshot()
			s.prec.Put(context.WithoutCancel(rctx), profDigest, w)
			sess.putVersion, sess.putOnce = v, true
		}
	}

	return &SessionResponse{
		SessionID:   sess.id,
		Version:     eng.Version(),
		Rankers:     len(sess.req.Profile),
		WarmStarted: warmStarted,
		AggregateResponse: AggregateResponse{
			result:    *res,
			Cached:    hit,
			Coalesced: shared,
			Digest:    digest,
		},
	}, http.StatusOK, nil
}
