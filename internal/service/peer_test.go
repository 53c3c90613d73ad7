package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"manirank/internal/fleet"
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
// fleet behaves as one sharded cache, and /statz reports the ring.
func TestFleetPeerFetchServesRemoteResult(t *testing.T) {
	nodes := newFleetHarness(t, 3, -1)
	req := testRequest("kemeny", 41)
	full, _ := Digests(req)
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

	st := nodes[0].srv.StatzSnapshot()
	if st.Fleet == nil || st.Fleet.Nodes != 3 || st.Fleet.Alive != 3 || st.Fleet.Self != nodes[0].url {
		t.Fatalf("statz fleet section = %+v", st.Fleet)
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

// TestFleetWarmReowned: when a dead replica returns, the replicas that
// absorbed its key range push the re-owned entries back — the returning
// node starts warm instead of stampeding the ring with first-touch builds.
func TestFleetWarmReowned(t *testing.T) {
	nodes := newFleetHarness(t, 2, -1)
	a, b := nodes[0], nodes[1]
	a.ring.MarkDead(b.url)

	// With B dead, A computes and keeps everything locally (half those keys
	// rendezvous-route to B when it is alive).
	for i := 0; i < 12; i++ {
		if status, _ := post(t, a.url, testRequest("borda", int64(200+i))); status != http.StatusOK {
			t.Fatalf("request %d failed", i)
		}
	}
	if len(b.srv.cache.Keys())+len(b.srv.prec.Keys()) != 0 {
		t.Fatal("B holds entries before returning")
	}

	a.ring.MarkAlive(b.url) // membership change: A's OnChange warms B
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(b.srv.cache.Keys())+len(b.srv.prec.Keys()) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no entries warmed to the returning replica")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if a.srv.peerWarms.Value() == 0 {
		t.Fatal("warm-push counter did not move")
	}
}

// TestPeerHandlerGates: the peer API's two integrity gates — the cache
// namespace header (412: replicas on different engine versions must never
// exchange entries) and the posted-profile digest check (400: a confused
// sender cannot poison the matrix tier under a key it doesn't hash to).
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

	// PUT junk results: neither may be admitted under the digest.
	for _, body := range []string{`{}`, `{"ranking":[0,0,7],"method":"borda"}`} {
		preq, err := http.NewRequest(http.MethodPut, base, strings.NewReader(body))
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
			t.Fatalf("junk result %s: status %d, want 400", body, resp.StatusCode)
		}
		if _, ok := nodes[0].srv.cache.Peek(context.Background(), "abcd"); ok {
			t.Fatalf("junk result %s was admitted", body)
		}
	}
}
