package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"testing"
)

// createSession POSTs an AggregateRequest to /v1/session and decodes the
// initial consensus.
func createSession(t *testing.T, url string, req *AggregateRequest) (int, *SessionResponse) {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/session", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var out SessionResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding session response %s: %v", body, err)
	}
	return resp.StatusCode, &out
}

// postOp POSTs one SessionOp to /v1/session/{id}.
func postOp(t *testing.T, url, id string, op *SessionOp) (int, *SessionResponse) {
	t.Helper()
	blob, err := json.Marshal(op)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/session/"+id, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var out SessionResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding op response %s: %v", body, err)
	}
	return resp.StatusCode, &out
}

// randomRow returns a random permutation row for mutations.
func randomRow(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// TestSessionLifecycle drives the streaming surface end to end: create,
// mutate, re-solve, inspect, delete — checking the digest-freshness
// invariants (a mutation always forks the result-cache key; an unchanged
// state re-solve is a cache hit) and that the incrementally patched matrix
// is shared with the stateless path through the matrix tier.
func TestSessionLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := testRequest("fair-kemeny", 7)
	n := len(req.Profile[0])

	status, created := createSession(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("create: status %d", status)
	}
	if created.SessionID == "" || created.Version != 0 || created.Rankers != len(req.Profile) {
		t.Fatalf("create response = %+v", created)
	}
	if created.WarmStarted {
		t.Fatal("first solve claims a warm start")
	}
	if err := created.Ranking.Validate(); err != nil {
		t.Fatalf("initial consensus invalid: %v", err)
	}
	id := created.SessionID

	// Re-solve with no mutation: same state + same warm seed = cache hit
	// with the same digest.
	status, again := postOp(t, ts.URL, id, &SessionOp{Op: "solve"})
	if status != http.StatusOK || !again.Cached || again.Digest != created.Digest {
		t.Fatalf("no-op re-solve: status=%d cached=%v digest match=%v",
			status, again.Cached, again.Digest == created.Digest)
	}

	// Mutate: the consensus must be fresh (new digest, not cached), fair,
	// and warm-started from the previous one.
	status, mutated := postOp(t, ts.URL, id, &SessionOp{Op: "update", Index: 0, Ranking: randomRow(n, 1)})
	if status != http.StatusOK {
		t.Fatalf("update: status %d", status)
	}
	if mutated.Cached || mutated.Digest == created.Digest {
		t.Fatal("mutated session served the pre-mutation cache entry")
	}
	if !mutated.WarmStarted || mutated.Version != 1 {
		t.Fatalf("update response = warm:%v version:%d, want warm-started v1", mutated.WarmStarted, mutated.Version)
	}
	if err := mutated.Ranking.Validate(); err != nil {
		t.Fatalf("post-mutation consensus invalid: %v", err)
	}
	for name, arp := range mutated.Audit.ARPs {
		if arp > req.Delta+1e-9 {
			t.Fatalf("post-mutation ARP %s = %g exceeds delta", name, arp)
		}
	}

	// Add and remove change the ranker count.
	status, added := postOp(t, ts.URL, id, &SessionOp{Op: "add", Ranking: randomRow(n, 2)})
	if status != http.StatusOK || added.Rankers != len(req.Profile)+1 || added.Version != 2 {
		t.Fatalf("add: status=%d %+v", status, added)
	}
	status, removed := postOp(t, ts.URL, id, &SessionOp{Op: "remove", Index: 3})
	if status != http.StatusOK || removed.Rankers != len(req.Profile) || removed.Version != 3 {
		t.Fatalf("remove: status=%d %+v", status, removed)
	}

	// The session wrote its patched matrix through to the shared tier under
	// the post-mutation profile digest, so a stateless request over the
	// session's current profile must not pay a matrix build.
	cur := s.sessions[id].req
	statelessReq := *cur
	buildsBefore := s.prec.Stats().Builds
	status, stateless := post(t, ts.URL, &statelessReq) // post() helper targets /v1/aggregate
	_ = stateless
	if status != http.StatusOK {
		t.Fatalf("stateless request over session profile: status %d", status)
	}
	if got := s.prec.Stats().Builds; got != buildsBefore {
		t.Fatalf("stateless request over mutated session profile rebuilt the matrix (builds %d -> %d)",
			buildsBefore, got)
	}

	// Inspect and delete.
	resp, err := http.Get(ts.URL + "/v1/session/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var info SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.SessionID != id || info.Version != 3 || info.Rankers != len(req.Profile) || info.Candidates != n {
		t.Fatalf("session info = %+v", info)
	}
	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
	if status, _ := postOp(t, ts.URL, id, &SessionOp{Op: "solve"}); status != http.StatusNotFound {
		t.Fatalf("op on deleted session: status %d, want 404", status)
	}
}

// TestSessionEditsNeverRebuildMatrix pins the streaming path's reason to
// exist: every session edit patches the precedence matrix in O(n²) and
// warm-starts the solve, so a stream of mixed edits pays no O(n²·m) matrix
// build after the one at create.
func TestSessionEditsNeverRebuildMatrix(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := testRequest("fair-kemeny", 9)
	n := len(req.Profile[0])
	status, created := createSession(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("create: status %d", status)
	}
	builds := s.prec.Stats().Builds
	for i, op := range []SessionOp{
		{Op: "update", Index: 0, Ranking: randomRow(n, 11)},
		{Op: "add", Ranking: randomRow(n, 12)},
		{Op: "update", Index: 5, Ranking: randomRow(n, 13)},
		{Op: "remove", Index: 2},
		{Op: "add", Ranking: randomRow(n, 14)},
		{Op: "update", Index: 3, Ranking: randomRow(n, 15)},
	} {
		status, resp := postOp(t, ts.URL, created.SessionID, &op)
		if status != http.StatusOK {
			t.Fatalf("edit %d (%s): status %d", i, op.Op, status)
		}
		if !resp.WarmStarted {
			t.Fatalf("edit %d (%s) solved cold", i, op.Op)
		}
	}
	if got := s.prec.Stats().Builds; got != builds {
		t.Fatalf("session edits rebuilt the matrix: builds %d -> %d", builds, got)
	}
}

// TestSessionMutationDigestsNeverCollide pins the staleness impossibility
// property: walking a session through a cycle of mutations that RETURNS to
// a previous profile state reuses that state's cache entry (same digest only
// when state and warm seed agree), while every distinct state gets a
// distinct digest.
func TestSessionMutationDigestsNeverCollide(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := testRequest("fair-borda", 8)
	n := len(req.Profile[0])
	origRow := append([]int(nil), req.Profile[2]...)

	_, created := createSession(t, ts.URL, req)
	id := created.SessionID

	seen := map[string]int{created.Digest: 0}
	_, m1 := postOp(t, ts.URL, id, &SessionOp{Op: "update", Index: 2, Ranking: randomRow(n, 3)})
	if _, dup := seen[m1.Digest]; dup {
		t.Fatal("mutation reused a previous digest")
	}
	seen[m1.Digest] = 1
	// Restore the original row: the profile state is back, but the warm seed
	// differs from the created solve's (nil) — so the digest must STILL be
	// fresh, never the created entry.
	_, m2 := postOp(t, ts.URL, id, &SessionOp{Op: "update", Index: 2, Ranking: origRow})
	if m2.Digest == created.Digest {
		t.Fatal("restored state with a different warm seed collided with the cold entry")
	}
	if _, dup := seen[m2.Digest]; dup {
		t.Fatal("mutation reused a previous digest")
	}
}

// TestSessionConcurrency is the race wall: several sessions mutated and
// re-solved from concurrent clients while /statz and /metricsz scrape,
// under -race. Every response must carry a valid, fair consensus — a solve
// that observed a half-applied matrix patch would produce garbage.
func TestSessionConcurrency(t *testing.T) {
	const sessions, opsPerClient = 3, 6
	s, ts := newTestServer(t, Config{Workers: 4})

	ids := make([]string, sessions)
	for i := range ids {
		status, created := createSession(t, ts.URL, testRequest("fair-kemeny", int64(20+i)))
		if status != http.StatusOK {
			t.Fatalf("create %d: status %d", i, status)
		}
		ids[i] = created.SessionID
	}

	var wg sync.WaitGroup
	errs := make(chan error, sessions*2+1)
	for i, id := range ids {
		for client := 0; client < 2; client++ {
			wg.Add(1)
			go func(id string, seed int64) {
				defer wg.Done()
				for k := 0; k < opsPerClient; k++ {
					op := &SessionOp{Op: "solve"}
					if k%2 == 0 {
						op = &SessionOp{Op: "update", Index: int(seed+int64(k)) % 12, Ranking: randomRow(20, seed*100+int64(k))}
					}
					status, out := postOp(t, ts.URL, id, op)
					if status != http.StatusOK {
						errs <- fmt.Errorf("session %s op %d: status %d", id[:8], k, status)
						return
					}
					if err := out.Ranking.Validate(); err != nil {
						errs <- fmt.Errorf("session %s op %d: invalid consensus: %v", id[:8], k, err)
						return
					}
					if out.Audit != nil && out.Audit.IRP > 0.3+1e-9 {
						errs <- fmt.Errorf("session %s op %d: IRP %g violates delta", id[:8], k, out.Audit.IRP)
						return
					}
				}
			}(id, int64(i*2+client))
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 10; k++ {
			for _, path := range []string{"/statz", "/metricsz"} {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					errs <- fmt.Errorf("scrape %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if active := s.reg.Value("manirank_sessions_active"); active != sessions {
		t.Fatalf("sessions active = %g, want %d", active, sessions)
	}
	ops := s.sessionOps
	if ops["create"].Value() != sessions || ops["update"].Value()+ops["solve"].Value() == 0 {
		t.Fatalf("session op counters: create %d, update %d, solve %d",
			ops["create"].Value(), ops["update"].Value(), ops["solve"].Value())
	}
}

// TestSessionReportsCanonicalMethod: a session created with a loose method
// spelling reports the canonical name everywhere — the create and solve
// responses, GET /v1/session/{id}, and the session's request traces.
func TestSessionReportsCanonicalMethod(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status, created := createSession(t, ts.URL, testRequest(" Borda ", 34))
	if status != http.StatusOK || created.Method != "borda" {
		t.Fatalf("create: status %d, method %q", status, created.Method)
	}
	if status, out := postOp(t, ts.URL, created.SessionID, &SessionOp{Op: "solve"}); status != http.StatusOK || out.Method != "borda" {
		t.Fatalf("solve: status %d", status)
	}
	resp, err := http.Get(ts.URL + "/v1/session/" + created.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Method != "borda" {
		t.Fatalf("session info method %q, want %q", info.Method, "borda")
	}
	recent, _ := s.traces.Snapshot()
	var names []string
	for _, tr := range recent {
		names = append(names, tr.Name)
	}
	if len(names) != 2 || names[0] != "session-solve/borda" || names[1] != "session-create/borda" {
		t.Fatalf("session traces %q, want the solve and the create under the canonical name", names)
	}
}

// TestSessionCancellation pins the deadline lifecycle: a mutation whose
// re-solve is truncated by a tiny deadline still applies durably, the
// truncated (partial) consensus is never cached, and the session remains
// re-solvable at full budget afterwards.
func TestSessionCancellation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A larger instance than testRequest's, so a few-ms budget reliably
	// truncates the constrained search mid-flight.
	req := testRequest("fair-kemeny", 9)
	const n = 60
	rng := rand.New(rand.NewSource(99))
	req.Profile = make([][]int, 20)
	for i := range req.Profile {
		req.Profile[i] = rng.Perm(n)
	}
	gender := make([]int, n)
	region := make([]int, n)
	for c := 0; c < n; c++ {
		gender[c] = c % 2
		region[c] = (c / 2) % 2
	}
	req.Attributes = []AttributeSpec{
		{Name: "Gender", Values: []string{"M", "W"}, Of: gender},
		{Name: "Region", Values: []string{"N", "S"}, Of: region},
	}

	status, created := createSession(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("create: status %d", status)
	}
	id := created.SessionID

	// A few-ms budget cannot finish a fair-kemeny solve at n=60; the engine
	// returns best-so-far, flagged partial.
	status, truncated := postOp(t, ts.URL, id, &SessionOp{Op: "update", Index: 1, Ranking: rng.Perm(n), DeadlineMillis: 5})
	if status != http.StatusOK {
		t.Fatalf("truncated update: status %d", status)
	}
	if err := truncated.Ranking.Validate(); err != nil {
		t.Fatalf("best-so-far consensus invalid: %v", err)
	}
	if truncated.Version != 1 {
		t.Fatalf("version = %d, want the mutation applied despite truncation", truncated.Version)
	}
	if truncated.Partial && truncated.Cached {
		t.Fatal("a partial result claimed to come from the cache")
	}

	// Full-budget re-solve of the same state: must compute (a partial result
	// was never admitted to the cache), complete, and be servable again.
	status, full := postOp(t, ts.URL, id, &SessionOp{Op: "solve"})
	if status != http.StatusOK || full.Partial {
		t.Fatalf("post-truncation solve: status=%d partial=%v", status, full.Partial)
	}
	if truncated.Partial && full.Cached {
		t.Fatal("full re-solve was served the truncated result from the cache")
	}
	if full.Version != 1 {
		t.Fatalf("version drifted to %d", full.Version)
	}
	// And once complete, the state IS cacheable.
	if _, cached := postOp(t, ts.URL, id, &SessionOp{Op: "solve"}); !cached.Cached {
		t.Fatal("complete session result was not cached")
	}
}

// TestSessionValidation exercises the session error surface.
func TestSessionValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 1})
	req := testRequest("fair-borda", 10)
	n := len(req.Profile[0])

	if status, _ := postOp(t, ts.URL, "no-such-session", &SessionOp{Op: "solve"}); status != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", status)
	}

	status, created := createSession(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("create: status %d", status)
	}
	id := created.SessionID

	if status, _ := createSession(t, ts.URL, testRequest("fair-borda", 11)); status != http.StatusTooManyRequests {
		t.Fatalf("create beyond MaxSessions: status %d, want 429", status)
	}

	bad := []SessionOp{
		{Op: "teleport"},
		{Op: "update", Index: 99, Ranking: randomRow(n, 1)},
		{Op: "remove", Index: -1},
		{Op: "add", Ranking: []int{0, 1}},
		{Op: "add", Ranking: append([]int{0, 0}, randomRow(n, 1)[2:]...)},
	}
	for _, op := range bad {
		if status, _ := postOp(t, ts.URL, id, &op); status != http.StatusBadRequest {
			t.Fatalf("op %+v: status %d, want 400", op, status)
		}
	}
	// Rejected mutations leave the session consistent: version unchanged,
	// still solvable.
	if _, out := postOp(t, ts.URL, id, &SessionOp{Op: "solve"}); out == nil || out.Version != 0 {
		t.Fatalf("session state after rejected ops: %+v", out)
	}

	// Draining the profile to one ranking then removing it is refused.
	for i := len(req.Profile); i > 1; i-- {
		if status, _ := postOp(t, ts.URL, id, &SessionOp{Op: "remove", Index: 0}); status != http.StatusOK {
			t.Fatalf("remove down to %d rankers: status %d", i-1, status)
		}
	}
	if status, _ := postOp(t, ts.URL, id, &SessionOp{Op: "remove", Index: 0}); status != http.StatusBadRequest {
		t.Fatalf("removing the last ranking: status %d, want 400", status)
	}

	// Sessions disabled entirely.
	_, tsOff := newTestServer(t, Config{MaxSessions: -1})
	if status, _ := createSession(t, tsOff.URL, req); status != http.StatusNotFound {
		t.Fatalf("disabled sessions: create status %d, want 404", status)
	}
}

// TestSessionCreateFailureFreesSlot: a session create whose first solve is
// refused (here 429, the solver busy and the queue full) must not keep its
// MaxSessions slot, nor count as a create; once the load drains, a create
// succeeds. A create at the limit is refused before its matrix is built.
func TestSessionCreateFailureFreesSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, MaxSessions: 1})
	var wg sync.WaitGroup
	for i, wait := range []func() bool{
		func() bool { return s.inFlight.Load() == 1 },
		func() bool { return s.queued.Load() == 1 },
	} {
		req := testRequest("fair-kemeny", int64(70+i))
		req.Options.Perturbations = 2_000_000
		req.DeadlineMillis = 400
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(t, ts.URL, req)
		}()
		waitFor(t, wait)
	}
	sreq := testRequest("fair-kemeny", 72)
	if status, _ := createSession(t, ts.URL, sreq); status != http.StatusTooManyRequests {
		t.Fatalf("create with the queue full: status %d, want 429", status)
	}
	if active, created := s.reg.Value("manirank_sessions_active"), s.sessionOps["create"].Value(); active != 0 || created != 0 {
		t.Fatalf("after a refused create: %g active, %d created, want none", active, created)
	}
	wg.Wait()
	if status, _ := createSession(t, ts.URL, sreq); status != http.StatusOK {
		t.Fatalf("create after the load drained: status %d, want 200", status)
	}
	if active, created := s.reg.Value("manirank_sessions_active"), s.sessionOps["create"].Value(); active != 1 || created != 1 {
		t.Fatalf("after a served create: %g active, %d created, want 1 and 1", active, created)
	}
	builds := s.prec.Stats().Builds
	if status, _ := createSession(t, ts.URL, testRequest("fair-kemeny", 73)); status != http.StatusTooManyRequests {
		t.Fatalf("create at the limit: status %d, want 429", status)
	}
	if got := s.prec.Stats().Builds; got != builds {
		t.Fatalf("a create at the limit built its matrix (builds %d -> %d)", builds, got)
	}
}
