package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"manirank/internal/fleet"
	"manirank/internal/mallows"
	"manirank/internal/ranking"
)

// fleetHarnessNode is one in-process replica of a test fleet: its own
// Server, ring, and HTTP listener, killable mid-test.
type fleetHarnessNode struct {
	url    string
	srv    *Server
	ring   *fleet.Fleet
	http   *http.Server
	killed atomic.Bool
}

// kill stops the replica abruptly (connections dropped, not drained) and is
// idempotent so test cleanup can re-run it.
func (nd *fleetHarnessNode) kill() {
	if !nd.killed.CompareAndSwap(false, true) {
		return
	}
	nd.http.Close()
	nd.srv.Close()
	nd.ring.Close()
}

// newFleetHarness boots n replicas peered over loopback. Listeners are bound
// before any ring is built so every node knows the full member list. probe
// < 0 disables liveness probing (tests drive MarkAlive/MarkDead directly
// for determinism); probe > 0 runs the real loop.
func newFleetHarness(t *testing.T, n int, probe time.Duration) []*fleetHarnessNode {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*fleetHarnessNode, n)
	for i := range nodes {
		peers := make([]string, 0, n-1)
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		ring, err := fleet.New(fleet.Config{
			Self:  urls[i],
			Peers: peers,
			// Generous bounds: CI machines under -race stall far past the
			// production defaults, and these tests assert routing, not SLOs.
			FetchTimeout:  3 * time.Second,
			BuildTimeout:  15 * time.Second,
			ProbeInterval: probe,
			ProbeTimeout:  250 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{
			Fleet:  ring,
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &fleetHarnessNode{
			url:  urls[i],
			srv:  srv,
			ring: ring,
			http: &http.Server{Handler: srv.Handler()},
		}
		go nodes[i].http.Serve(lns[i])
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.kill()
		}
	})
	return nodes
}

// ownerIndex returns which harness node the ring makes owner of key.
func ownerIndex(nodes []*fleetHarnessNode, key string) int {
	urls := make([]string, len(nodes))
	for i, nd := range nodes {
		urls[i] = nd.url
	}
	owner := fleet.Owner(urls, key, nil)
	for i, u := range urls {
		if u == owner {
			return i
		}
	}
	return -1
}

// rawPost is post without t.Fatal, safe to call from worker goroutines.
func rawPost(url string, req *AggregateRequest) (int, error) {
	blob, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url+"/v1/aggregate", "application/json", bytes.NewReader(blob))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// TestFleetPeerFetchServesRemoteResult: a result computed where the ring
// says it belongs is served to every other replica as a peer hit — the
// fleet behaves as one sharded cache, and /statz reports the ring and the
// peer counters.
func TestFleetPeerFetchServesRemoteResult(t *testing.T) {
	nodes := newFleetHarness(t, 3, -1)
	req := testRequest("kemeny", 41)
	full, prof := Digests(req)
	owner := ownerIndex(nodes, full)

	// Seed the entry at its owner, then read it from both non-owners.
	if status, out := post(t, nodes[owner].url, req); status != http.StatusOK || out.Cached {
		t.Fatalf("owner solve: status=%d cached=%v", status, out != nil && out.Cached)
	}
	for i, nd := range nodes {
		if i == owner {
			continue
		}
		status, out := post(t, nd.url, req)
		if status != http.StatusOK || !out.Cached {
			t.Fatalf("node %d: peer-backed request status=%d cached=%v — remote entry not served", i, status, out != nil && out.Cached)
		}
		if hits := nd.srv.cache.Stats().PeerHits; hits != 1 {
			t.Fatalf("node %d result peer hits = %d, want 1", i, hits)
		}
	}

	// Per-ring single compute: the whole fleet paid exactly one matrix build
	// for the one distinct profile.
	var builds uint64
	for _, nd := range nodes {
		builds += nd.srv.prec.Stats().Builds
	}
	if builds != 1 {
		t.Fatalf("fleet-wide matrix builds = %d, want exactly 1", builds)
	}

	// The /statz shape after a peer hit, pinned on a reader that neither
	// owns the result nor built the matrix, so only its result tier saw
	// peer traffic: the fleet section and the peer counters that appear
	// once non-zero. The owner asked its runner-up first and was told no.
	reader := 0
	for reader == owner || reader == ownerIndex(nodes, prof) {
		reader++
	}
	st := getStatz(t, nodes[reader].url)
	if statzAt(st, "fleet", "nodes") != 3.0 || statzAt(st, "fleet", "alive") != 3.0 ||
		statzAt(st, "fleet", "self") != nodes[reader].url {
		t.Fatalf("statz fleet section = %v", statzAt(st, "fleet"))
	}
	keys := jsonKeyPaths(st, "", nil)
	sort.Strings(keys)
	checkGolden(t, "statz_fleet_keys.golden", keys)
	if got := statzAt(getStatz(t, nodes[owner].url), "cache", "peer_misses"); got != 1.0 {
		t.Fatalf("owner statz cache.peer_misses = %v, want 1", got)
	}
}

// TestFleetBuildRoutedToOwner: a profile first seen by a non-owner is built
// on its rendezvous OWNER (posted over the peer protocol, under the owner's
// single-flight), and once built it serves every other replica as a matrix
// peer hit. No replica ever rebuilds it.
func TestFleetBuildRoutedToOwner(t *testing.T) {
	nodes := newFleetHarness(t, 3, -1)
	req := testRequest("copeland", 43)
	_, prof := Digests(req)
	profOwner := ownerIndex(nodes, prof)
	first := (profOwner + 1) % 3
	second := (profOwner + 2) % 3

	if status, _ := post(t, nodes[first].url, req); status != http.StatusOK {
		t.Fatalf("first request: status %d", status)
	}
	if got := nodes[profOwner].srv.prec.Stats().Builds; got != 1 {
		t.Fatalf("profile owner builds = %d, want 1 (build must route to the owner)", got)
	}
	if got := nodes[first].srv.prec.Stats().Builds; got != 0 {
		t.Fatalf("requesting node builds = %d, want 0", got)
	}
	if got := nodes[first].srv.prec.Stats().PeerHits; got != 1 {
		t.Fatalf("requesting node matrix peer hits = %d, want 1", got)
	}

	// A different method over the same profile from the third replica:
	// different result digest (miss), same matrix — peer-fetched, not rebuilt.
	req2 := testRequest("borda", 43)
	if status, _ := post(t, nodes[second].url, req2); status != http.StatusOK {
		t.Fatalf("second request: status %d", status)
	}
	if got := nodes[second].srv.prec.Stats().PeerHits; got != 1 {
		t.Fatalf("third replica matrix peer hits = %d, want 1", got)
	}
	var builds uint64
	for _, nd := range nodes {
		builds += nd.srv.prec.Stats().Builds
	}
	if builds != 1 {
		t.Fatalf("fleet-wide matrix builds = %d, want exactly 1 across both methods", builds)
	}
}

// TestFleetOneBuildPerProfileUnderLoad: concurrent clients spread over the
// ring, asking each profile several times under two methods, still cost
// exactly one matrix build per distinct profile fleet-wide — owner routing
// and flight coalescing hold under contention — and both tiers serve peers.
func TestFleetOneBuildPerProfileUnderLoad(t *testing.T) {
	const profiles, clients, repeats = 20, 4, 3
	nodes := newFleetHarness(t, 3, -1)
	methods := []string{"borda", "copeland"}

	var failures atomic.Int64
	var sent atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < profiles*len(methods)*repeats; i += clients {
				req := testRequest(methods[i%len(methods)], int64(200+(i/len(methods))%profiles))
				status, err := rawPost(nodes[int(sent.Add(1))%len(nodes)].url, req)
				if err != nil || status != http.StatusOK {
					failures.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed", n, sent.Load())
	}
	var builds, resultPeerHits, matrixPeerHits uint64
	for _, nd := range nodes {
		builds += nd.srv.prec.Stats().Builds
		matrixPeerHits += nd.srv.prec.Stats().PeerHits
		resultPeerHits += nd.srv.cache.Stats().PeerHits
	}
	if builds != profiles {
		t.Fatalf("fleet-wide matrix builds = %d, want exactly %d (one per profile)", builds, profiles)
	}
	if resultPeerHits == 0 || matrixPeerHits == 0 {
		t.Fatalf("peer hits: result %d, matrix %d; want both > 0", resultPeerHits, matrixPeerHits)
	}
}

// TestFleetKillOwnerUnderLoad: with one replica killed mid-load, every
// request sent to a survivor still answers 200 — peer reads to the corpse
// fail fast, feed the liveness view, and degrade to local compute.
func TestFleetKillOwnerUnderLoad(t *testing.T) {
	nodes := newFleetHarness(t, 3, 25*time.Millisecond)
	// Warm every node so the dead replica leaves actual holes behind.
	for i, nd := range nodes {
		if status, _ := post(t, nd.url, testRequest("borda", int64(50+i))); status != http.StatusOK {
			t.Fatalf("warmup node %d failed", i)
		}
	}
	victim, survivors := nodes[2], nodes[:2]

	var failures atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				req := testRequest("borda", int64(100+10*c+i))
				status, err := rawPost(survivors[c%2].url, req)
				if err != nil || status != http.StatusOK {
					failures.Add(1)
				}
				if c == 0 && i == 0 {
					victim.kill() // mid-load, after the first request is in flight elsewhere
				}
			}
		}(c)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed on surviving nodes after the kill", n)
	}

	// The survivors' probes must converge on the corpse being dead.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(survivors[0].ring.Alive()) == 2 && len(survivors[1].ring.Alive()) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors never marked the killed replica dead: alive=%v/%v",
				survivors[0].ring.Alive(), survivors[1].ring.Alive())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// And requests keep answering against the shrunken ring.
	if status, _ := post(t, survivors[0].url, testRequest("borda", 999)); status != http.StatusOK {
		t.Fatal("request failed after liveness converged")
	}
}

// TestFleetRejoinPullsFromRunnerUp: when a dead replica returns empty, the
// digests it owns again are read from the replica that owned them while it
// was away — the returning node answers them as peer hits instead of
// re-solving and rebuilding each on first touch.
func TestFleetRejoinPullsFromRunnerUp(t *testing.T) {
	nodes := newFleetHarness(t, 2, -1)
	a, b := nodes[0], nodes[1]
	a.ring.MarkDead(b.url)

	// With B dead, A computes and keeps everything locally (half those keys
	// rendezvous-route to B when it is alive).
	reqs := make([]*AggregateRequest, 12)
	for i := range reqs {
		reqs[i] = testRequest("borda", int64(200+i))
		if status, _ := post(t, a.url, reqs[i]); status != http.StatusOK {
			t.Fatalf("request %d failed", i)
		}
	}
	if len(b.srv.cache.Keys())+len(b.srv.prec.Keys()) != 0 {
		t.Fatal("B holds entries before returning")
	}

	a.ring.MarkAlive(b.url)
	owned := 0
	for i, req := range reqs {
		if full, _ := Digests(req); ownerIndex(nodes, full) != 1 {
			continue
		}
		owned++
		status, out := post(t, b.url, req)
		if status != http.StatusOK || !out.Cached {
			t.Fatalf("request %d on its returning owner: status=%d cached=%v", i, status, out != nil && out.Cached)
		}
	}
	if owned == 0 {
		t.Fatal("B owns none of the 12 digests")
	}
	st := b.srv.cache.Stats()
	if st.PeerHits != uint64(owned) || st.Builds != 0 {
		t.Fatalf("B: result peer hits %d, solves %d; want %d and 0", st.PeerHits, st.Builds, owned)
	}
	if builds := b.srv.prec.Stats().Builds; builds != 0 {
		t.Fatalf("B built %d matrices for digests A already held", builds)
	}
}

// TestFleetOwnerBuildReadsRunnerUp: a build a non-owner posts to a returning
// owner is served from the runner-up's copy, not rebuilt: the owner reads
// before it builds on the POST path too.
func TestFleetOwnerBuildReadsRunnerUp(t *testing.T) {
	nodes := newFleetHarness(t, 3, -1)
	a, b, c := nodes[0], nodes[1], nodes[2]
	urls := []string{a.url, b.url, c.url}
	var seeds []int64
	for seed := int64(300); len(seeds) < 3 && seed < 400; seed++ {
		_, prof := Digests(testRequest("borda", seed))
		if ranked := fleet.Owners(urls, prof, 2, nil); ranked[0] == b.url && ranked[1] == a.url {
			seeds = append(seeds, seed)
		}
	}
	if len(seeds) == 0 {
		t.Fatal("no profile in 100 seeds that B owns with A as runner-up")
	}

	// While B is away, A owns these profiles and builds their matrices.
	a.ring.MarkDead(b.url)
	c.ring.MarkDead(b.url)
	for _, seed := range seeds {
		if status, _ := post(t, a.url, testRequest("borda", seed)); status != http.StatusOK {
			t.Fatalf("seed %d on A failed", seed)
		}
	}
	a.ring.MarkAlive(b.url)
	c.ring.MarkAlive(b.url)

	// Another method from C: C misses the matrix and posts B, which reads A.
	for _, seed := range seeds {
		if status, _ := post(t, c.url, testRequest("copeland", seed)); status != http.StatusOK {
			t.Fatalf("seed %d on C failed", seed)
		}
	}
	if st := b.srv.prec.Stats(); st.Builds != 0 || st.PeerHits != uint64(len(seeds)) {
		t.Fatalf("B: matrix builds %d, peer hits %d; want 0 and %d", st.Builds, st.PeerHits, len(seeds))
	}
	var builds uint64
	for _, nd := range nodes {
		builds += nd.srv.prec.Stats().Builds
	}
	if builds != uint64(len(seeds)) {
		t.Fatalf("fleet-wide matrix builds = %d, want %d (one per profile)", builds, len(seeds))
	}
}

// TestFleetRejectsMisfitPeerEntry: a peer read is checked against the
// request it answers. A well-formed entry for the wrong problem — a
// permutation of the wrong length, another method's result, a partial
// result, a matrix over other candidate or ranking counts — counts as a
// peer error; the node answers with its own solve and admits nothing from
// the peer.
func TestFleetRejectsMisfitPeerEntry(t *testing.T) {
	req := testRequest("kemeny", 61)
	full, prof := Digests(req)
	_, ref := newTestServer(t, Config{})
	status, want := post(t, ref.URL, req)
	if status != http.StatusOK {
		t.Fatalf("reference solve: status %d", status)
	}
	matrix := func(n, m int) string {
		w, err := ranking.NewPrecedence(mallows.MustNew(ranking.New(n), 0.5).
			SampleProfile(m, rand.New(rand.NewSource(1))))
		if err != nil {
			t.Fatal(err)
		}
		data, err := w.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	entry := func(r ranking.Ranking, method string, partial bool) string {
		data, err := json.Marshal(&result{Ranking: r, Method: method, Partial: partial})
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	type misfit struct{ name, kind, body string }
	for _, tc := range []misfit{
		{"short ranking", fleet.KindResults, entry(ranking.New(19), "kemeny", false)},
		{"other method", fleet.KindResults, entry(want.Ranking, "borda", false)},
		{"partial", fleet.KindResults, entry(want.Ranking, "kemeny", true)},
		{"other n", fleet.KindMatrices, matrix(19, 12)},
		{"other m", fleet.KindMatrices, matrix(20, 11)},
	} {
		peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasPrefix(r.URL.Path, fleet.PathPrefix+tc.kind+"/") {
				http.NotFound(w, r)
				return
			}
			io.WriteString(w, tc.body)
		}))
		t.Cleanup(peer.Close)
		// The misfit must be caught both where this node reads the peer as
		// the digests' owner and where it reads the peer as its runner-up.
		for _, selfOwns := range []bool{false, true} {
			self := ""
			for i := 0; self == ""; i++ {
				cand := fmt.Sprintf("http://self-%d.invalid", i)
				nodes := []string{cand, peer.URL}
				if (fleet.Owner(nodes, full, nil) == cand) == selfOwns && (fleet.Owner(nodes, prof, nil) == cand) == selfOwns {
					self = cand
				}
			}
			t.Run(fmt.Sprintf("%s/self_owns=%v", tc.name, selfOwns), func(t *testing.T) {
				ring, err := fleet.New(fleet.Config{
					Self: self, Peers: []string{peer.URL},
					ProbeInterval: -1, HedgeDelay: -1, FetchTimeout: 3 * time.Second,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(ring.Close)
				srv, ts := newTestServer(t, Config{Fleet: ring})

				status, out := post(t, ts.URL, req)
				if status != http.StatusOK || out.Cached || !slices.Equal(out.Ranking, want.Ranking) {
					t.Fatalf("status=%d response=%+v, want the local solve %v", status, out, want.Ranking)
				}
				tier := srv.cache.Stats()
				if tc.kind == fleet.KindMatrices {
					tier = srv.prec.Stats()
				}
				if tier.PeerErrors != 1 || tier.PeerHits != 0 {
					t.Fatalf("%s tier: peer errors %d, peer hits %d; want 1 and 0", tc.kind, tier.PeerErrors, tier.PeerHits)
				}
				ctx := context.Background()
				if res, ok := srv.cache.Peek(ctx, full); !ok || !slices.Equal(res.Ranking, want.Ranking) || res.Method != "kemeny" {
					t.Fatalf("result tier holds %+v", res)
				}
				if w, ok := srv.prec.Peek(ctx, prof); !ok || w.N() != 20 || w.Rankings() != 12 {
					t.Fatal("matrix tier does not hold the profile's own matrix")
				}
			})
		}
	}
}

// TestPeerHandlerGates: the peer API's two integrity gates — the cache
// namespace header (412: replicas on different engine versions must never
// exchange entries) and the posted-profile digest check (400: a confused
// sender cannot poison the matrix tier under a key it doesn't hash to) —
// and its one rule for writes: there are none.
func TestPeerHandlerGates(t *testing.T) {
	nodes := newFleetHarness(t, 1, -1)
	base := nodes[0].url + fleet.PathPrefix + fleet.KindResults + "/abcd"

	get := func(ns string) int {
		req, err := http.NewRequest(http.MethodGet, base, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ns != "" {
			req.Header.Set(fleet.NamespaceHeader, ns)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if status := get("manirankd_v2@engine-SOMETHING-ELSE"); status != http.StatusPreconditionFailed {
		t.Fatalf("mismatched namespace: status %d, want 412", status)
	}
	if status := get(""); status != http.StatusPreconditionFailed {
		t.Fatalf("missing namespace: status %d, want 412", status)
	}
	if status := get(nodes[0].ring.Namespace()); status != http.StatusNotFound {
		t.Fatalf("valid namespace, absent digest: status %d, want 404", status)
	}

	// POST a real profile under a digest it does not hash to.
	req := testRequest("borda", 7)
	blob, err := json.Marshal(req.Profile)
	if err != nil {
		t.Fatal(err)
	}
	preq, err := http.NewRequest(http.MethodPost,
		nodes[0].url+fleet.PathPrefix+fleet.KindMatrices+"/"+strings.Repeat("ab", 32),
		bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	preq.Header.Set(fleet.NamespaceHeader, nodes[0].ring.Namespace())
	resp, err := http.DefaultClient.Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched profile digest: status %d, want 400", resp.StatusCode)
	}
	if builds := nodes[0].srv.prec.Stats().Builds; builds != 0 {
		t.Fatalf("poisoning attempt triggered %d builds", builds)
	}

	// The peer API is read-only: PUT answers 405 on both kinds, even with a
	// well-formed entry, and admits nothing.
	w, err := ranking.NewPrecedence(ranking.Profile{{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	mblob, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for kind, body := range map[string]string{
		fleet.KindResults:  `{"ranking":[0,1,2],"method":"borda"}`,
		fleet.KindMatrices: string(mblob),
	} {
		preq, err := http.NewRequest(http.MethodPut, nodes[0].url+fleet.PathPrefix+kind+"/abcd", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		preq.Header.Set(fleet.NamespaceHeader, nodes[0].ring.Namespace())
		resp, err := http.DefaultClient.Do(preq)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("PUT %s: status %d, want 405", kind, resp.StatusCode)
		}
	}
	ctx := context.Background()
	if _, ok := nodes[0].srv.cache.Peek(ctx, "abcd"); ok {
		t.Fatal("a PUT result was admitted")
	}
	if _, ok := nodes[0].srv.prec.Peek(ctx, "abcd"); ok {
		t.Fatal("a PUT matrix was admitted")
	}
}
