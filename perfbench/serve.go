package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"time"

	"manirank/internal/attribute"
	"manirank/internal/fleet"
	"manirank/internal/mallows"
	"manirank/internal/ranking"
	"manirank/internal/service"
)

// node is one in-process manirankd replica on a loopback listener.
type node struct {
	url  string
	ring *fleet.Fleet
	srv  *service.Server
	hs   *http.Server
	done chan struct{} // closed once Serve has returned
}

// startNodes boots n replicas; with n > 1 they are peered into one fleet.
// Liveness probing is off: every node stays alive for the whole run, and
// set-up never waits on a probe timer. Hedged reads are off too: a second
// leg fires only when a peer read is slow, so with hedging on the work a
// request does depended on how busy the machine was.
func startNodes(n int, cfg service.Config) ([]*node, error) {
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	nodes := make([]*node, 0, n)
	for i, ln := range lns {
		nd := &node{url: urls[i], done: make(chan struct{})}
		c := cfg
		if n > 1 {
			peers := make([]string, 0, n-1)
			for j, u := range urls {
				if j != i {
					peers = append(peers, u)
				}
			}
			ring, err := fleet.New(fleet.Config{Self: urls[i], Peers: peers, ProbeInterval: -1, HedgeDelay: -1})
			if err != nil {
				closeListeners(lns[i:])
				stopNodes(nodes)
				return nil, err
			}
			nd.ring, c.Fleet = ring, ring
		}
		srv, err := service.New(c)
		if err != nil {
			if nd.ring != nil {
				nd.ring.Close()
			}
			closeListeners(lns[i:])
			stopNodes(nodes)
			return nil, err
		}
		nd.srv = srv
		nd.hs = &http.Server{Handler: srv.Handler()}
		go func() {
			defer close(nd.done)
			_ = nd.hs.Serve(ln) // always http.ErrServerClosed after stopNodes
		}()
		nodes = append(nodes, nd)
	}
	return nodes, nil
}

func closeListeners(lns []net.Listener) {
	for _, l := range lns {
		l.Close()
	}
}

// stopNodes closes every replica and waits for its serve loop to end.
func stopNodes(nodes []*node) {
	for _, nd := range nodes {
		nd.hs.Close()
		<-nd.done
		nd.srv.Close()
		if nd.ring != nil {
			nd.ring.Close()
		}
	}
}

func nodeURLs(nodes []*node) []string {
	out := make([]string, len(nodes))
	for i, nd := range nodes {
		out[i] = nd.url
	}
	return out
}

// newClients returns one HTTP client per connection; each keeps at most one
// connection open to each node.
func newClients(conns int) []*http.Client {
	cs := make([]*http.Client, conns)
	for i := range cs {
		cs[i] = &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return cs
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// postJSON posts body and decodes a 200 answer into out. It returns the
// HTTP status (0 when the request never got one).
func postJSON(c *http.Client, url string, body []byte, out any) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return resp.StatusCode, err
}

// errClass maps a request that did not produce a usable answer to its
// failure class; "" means the answer can be checked.
func errClass(status int, err error) string {
	switch {
	case status == 0:
		return "transport"
	case status == http.StatusTooManyRequests:
		return "429"
	case status >= 500:
		return "5xx"
	case status != http.StatusOK:
		return "status"
	case err != nil:
		return "invalid"
	}
	return ""
}

// subSeed derives an independent stream seed from the workload seed, so
// every phase draws from its own generator.
func subSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(stream)) // hash writes never fail
	x := h.Sum64() ^ uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

func rngFor(seed int64, stream string, i int) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, stream, i)))
}

// zipf draws index k of [0, n) with probability proportional to 1/(k+1)^s.
type zipf struct{ cum []float64 }

func newZipf(s float64, n int) zipf {
	cum := make([]float64, n)
	total := 0.0
	for k := range cum {
		total += math.Pow(float64(k+1), -s)
		cum[k] = total
	}
	return zipf{cum}
}

func (z zipf) draw(rng *rand.Rand) int {
	return sort.SearchFloat64s(z.cum, rng.Float64()*z.cum[len(z.cum)-1])
}

// The serving profiles: n candidates with Gender (c%2) and Region ((c/2)%3),
// m Plackett-Luce rankers around a random modal ranking.
const (
	serveN     = 60
	serveM     = 40
	serveTheta = 0.4
	serveDelta = 0.2
)

func serveAttrs() []service.AttributeSpec {
	gender := make([]int, serveN)
	region := make([]int, serveN)
	for c := range gender {
		gender[c] = c % 2
		region[c] = (c / 2) % 3
	}
	return []service.AttributeSpec{
		{Name: "Gender", Values: []string{"M", "W"}, Of: gender},
		{Name: "Region", Values: []string{"N", "C", "S"}, Of: region},
	}
}

func specTable(specs []service.AttributeSpec, n int) (*attribute.Table, error) {
	attrs := make([]*attribute.Attribute, len(specs))
	for i, s := range specs {
		a, err := attribute.NewAttribute(s.Name, s.Values, s.Of)
		if err != nil {
			return nil, err
		}
		attrs[i] = a
	}
	return attribute.NewTable(n, attrs...)
}

func serveProfile(rng *rand.Rand) ranking.Profile {
	modal := ranking.Random(serveN, rng)
	return mallows.MustNewPlackettLuce(modal, serveTheta).SampleProfile(serveM, rng)
}

func rows(p ranking.Profile) [][]int {
	out := make([][]int, len(p))
	for i, r := range p {
		out[i] = append([]int(nil), r...)
	}
	return out
}

// catalogSeed fixes the serving workloads' profile catalogue (the request
// pool); --seed draws the traffic over it. With the catalogue drawn from --seed as well, a few Zipf-popular
// profiles decided the figures, and the closed-loop capacity moved by 16%
// between seeds.
const catalogSeed = 20220509
