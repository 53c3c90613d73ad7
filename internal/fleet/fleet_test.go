package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func newTestFleet(t *testing.T, self string, peers ...string) *Fleet {
	t.Helper()
	f, err := New(Config{
		Self:          self,
		Peers:         peers,
		ProbeInterval: -1, // liveness driven by the test, not a ticker
		FetchTimeout:  2 * time.Second,
		HedgeDelay:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	f.SetNamespace("manirankd_v2@engine-test")
	return f
}

func TestLivenessThresholdAndEpoch(t *testing.T) {
	f := newTestFleet(t, "http://self", "http://peer")
	if got := len(f.Alive()); got != 2 {
		t.Fatalf("peers start alive: got %d alive nodes, want 2", got)
	}
	// One failure is hysteresis, not death.
	f.recordFailure("http://peer")
	if len(f.Alive()) != 2 || f.Epoch() != 0 {
		t.Fatalf("one strike flipped liveness: alive=%v epoch=%d", f.Alive(), f.Epoch())
	}
	f.recordFailure("http://peer")
	if len(f.Alive()) != 1 || f.Epoch() != 1 {
		t.Fatalf("two strikes should kill: alive=%v epoch=%d", f.Alive(), f.Epoch())
	}
	// Repeated failures after death don't churn the epoch.
	f.recordFailure("http://peer")
	if f.Epoch() != 1 {
		t.Fatalf("failure on a dead peer bumped epoch to %d", f.Epoch())
	}
	// One success resurrects.
	f.recordSuccess("http://peer")
	if len(f.Alive()) != 2 || f.Epoch() != 2 {
		t.Fatalf("success should resurrect: alive=%v epoch=%d", f.Alive(), f.Epoch())
	}
}

// Every alive-set transition advances the epoch exactly once; a repeated
// verdict is no transition.
func TestEpochAdvancesPerTransition(t *testing.T) {
	f := newTestFleet(t, "http://self", "http://peer")
	for i, step := range []struct {
		mark  func(string)
		epoch uint64
	}{
		{f.MarkDead, 1},
		{f.MarkDead, 1}, // no-op: already dead
		{f.MarkAlive, 2},
		{f.MarkAlive, 2}, // no-op: already alive
	} {
		step.mark("http://peer")
		if got := f.Epoch(); got != step.epoch {
			t.Fatalf("step %d: epoch %d, want %d", i, got, step.epoch)
		}
	}
}

func TestRouteSkipsDeadOwner(t *testing.T) {
	f := newTestFleet(t, "http://self", "http://peer-a", "http://peer-b")
	// Find a key the fleet routes to a peer, kill that peer, and the key
	// must re-route deterministically without ever failing.
	key := ""
	var owner string
	for _, k := range digests(50) {
		if o, self := f.Route(k); !self {
			key, owner = k, o
			break
		}
	}
	if key == "" {
		t.Fatal("no peer-owned key in 50 digests")
	}
	f.MarkDead(owner)
	next, _ := f.Route(key)
	if next == owner {
		t.Fatalf("dead node %s still owns %s", owner, key)
	}
	f.MarkDead("http://peer-a")
	f.MarkDead("http://peer-b")
	if got, self := f.Route(key); !self || got != "http://self" {
		t.Fatalf("all peers dead: Route = (%s, %v), want self", got, self)
	}
}

// peerServer is a scriptable peer endpoint.
func peerServer(t *testing.T, handler http.HandlerFunc) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	return srv
}

func TestFetchHitMissAndNamespaceHeader(t *testing.T) {
	var gotNS atomic.Value
	srv := peerServer(t, func(w http.ResponseWriter, r *http.Request) {
		gotNS.Store(r.Header.Get(NamespaceHeader))
		switch r.URL.Path {
		case PathPrefix + KindResults + "/hit":
			w.Write([]byte("payload"))
		default:
			http.NotFound(w, r)
		}
	})
	f := newTestFleet(t, "http://self", srv.URL)

	payload, found, err := f.Fetch(context.Background(), KindResults, "hit")
	if err != nil || !found || string(payload) != "payload" {
		t.Fatalf("Fetch hit = (%q, %v, %v)", payload, found, err)
	}
	if ns := gotNS.Load(); ns != "manirankd_v2@engine-test" {
		t.Fatalf("namespace header = %v", ns)
	}
	if _, found, err := f.Fetch(context.Background(), KindResults, "absent"); err != nil || found {
		t.Fatalf("Fetch of absent key = (found=%v, err=%v), want authoritative miss", found, err)
	}
}

func TestFetchHedgesToRunnerUp(t *testing.T) {
	// The slow server never answers within the fetch timeout; the fast one
	// serves every digest. Whichever is ranked first, the hedge (or the
	// direct read) must land on the fast node and return a hit.
	slow := peerServer(t, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Second)
	})
	fast := peerServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("from-fast"))
	})
	f := newTestFleet(t, "http://self", slow.URL, fast.URL)
	start := time.Now()
	payload, found, err := f.Fetch(context.Background(), KindMatrices, "any-digest")
	if err != nil || !found || string(payload) != "from-fast" {
		t.Fatalf("hedged Fetch = (%q, %v, %v)", payload, found, err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedged fetch took %v; hedge leg did not fire", elapsed)
	}
}

func TestFetchErrorDegradesAndFeedsLiveness(t *testing.T) {
	srv := peerServer(t, func(w http.ResponseWriter, r *http.Request) {})
	f := newTestFleet(t, "http://self", srv.URL)
	srv.Close() // connection refused from here on
	for i := 0; i < failThreshold; i++ {
		if _, found, err := f.Fetch(context.Background(), KindResults, "k"); err == nil || found {
			t.Fatalf("fetch from dead peer: (found=%v, err=%v), want error", found, err)
		}
	}
	if len(f.Alive()) != 1 {
		t.Fatalf("fetch failures did not kill the peer: alive=%v", f.Alive())
	}
	// With every peer dead there is nothing to fetch from: ErrNoPeer, so
	// the service computes locally without paying any timeout.
	if _, _, err := f.Fetch(context.Background(), KindResults, "k"); err != ErrNoPeer {
		t.Fatalf("fetch with all peers dead: err=%v, want ErrNoPeer", err)
	}
}

func TestBuildMatrixPostsProfile(t *testing.T) {
	var gotBody atomic.Value
	srv := peerServer(t, func(w http.ResponseWriter, r *http.Request) {
		b := make([]byte, r.ContentLength)
		r.Body.Read(b)
		gotBody.Store(r.Method + " " + string(b))
		w.Write([]byte("matrix-bytes"))
	})
	f := newTestFleet(t, "http://self", srv.URL)
	out, err := f.BuildMatrix(context.Background(), srv.URL, "d1", []byte(`{"profile":[[0,1]]}`))
	if err != nil || string(out) != "matrix-bytes" {
		t.Fatalf("BuildMatrix = (%q, %v)", out, err)
	}
	if b := gotBody.Load(); b != `POST {"profile":[[0,1]]}` {
		t.Fatalf("owner saw %v", b)
	}
}

// For a key this node owns, Fetch reads the runner-up: the node that owned
// the key while this one was dead.
func TestFetchSelfOwnedReadsRunnerUp(t *testing.T) {
	var hits [2]atomic.Int32
	srvs := make([]*httptest.Server, 2)
	for i := range srvs {
		srvs[i] = peerServer(t, func(w http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			w.Write([]byte("entry"))
		})
	}
	// Unhedged: the one read must land on the runner-up alone.
	f, err := New(Config{Self: "http://self", Peers: []string{srvs[0].URL, srvs[1].URL},
		ProbeInterval: -1, HedgeDelay: -1, FetchTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	nodes := []string{"http://self", srvs[0].URL, srvs[1].URL}
	key := ""
	for _, k := range digests(50) {
		if _, self := f.Route(k); self {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no self-owned key in 50 digests")
	}
	payload, found, err := f.Fetch(context.Background(), KindResults, key)
	if err != nil || !found || string(payload) != "entry" {
		t.Fatalf("Fetch = (%q, %v, %v)", payload, found, err)
	}
	runnerUp := Owners(nodes, key, 2, nil)[1]
	for i, srv := range srvs {
		want := int32(0)
		if srv.URL == runnerUp {
			want = 1
		}
		if got := hits[i].Load(); got != want {
			t.Fatalf("peer %d (%s) served %d reads, want %d (runner-up %s)", i, srv.URL, got, want, runnerUp)
		}
	}
}

func TestProbeLoopDetectsDeathAndRecovery(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	srv := peerServer(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && healthy.Load() {
			w.Write([]byte("ok"))
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	f, err := New(Config{
		Self:          "http://self",
		Peers:         []string{srv.URL},
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	waitAlive := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for len(f.Alive()) != want && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := len(f.Alive()); got != want {
			t.Fatalf("alive count = %d, want %d", got, want)
		}
	}
	healthy.Store(false)
	waitAlive(1)
	healthy.Store(true)
	waitAlive(2)
}
