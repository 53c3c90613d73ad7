package service

import (
	"encoding/json"
	"testing"

	"manirank/internal/ranking"
)

// baseRequest returns a representative request touching every digest field.
func baseRequest() *AggregateRequest {
	return &AggregateRequest{
		Method:  "fair-kemeny",
		Profile: [][]int{{0, 1, 2, 3}, {1, 0, 3, 2}, {0, 2, 1, 3}},
		Attributes: []AttributeSpec{
			{Name: "Gender", Values: []string{"M", "W"}, Of: []int{0, 1, 0, 1}},
			{Name: "Race", Values: []string{"A", "B"}, Of: []int{0, 0, 1, 1}},
		},
		Delta:      0.2,
		Thresholds: map[string]float64{"Gender": 0.1, "Race": 0.3, "intersection": 0.25},
		Options:    SolverOptions{Seed: 7, Perturbations: 16, Strength: 4, ExactThreshold: 10, MaxNodes: 1000},
	}
}

// fullDigest returns the full request digest of req (the first of Digests).
func fullDigest(req *AggregateRequest) string {
	full, _ := Digests(req)
	return full
}

// TestDigestStableAcrossMapIterationOrder rebuilds the thresholds map many
// times with different insertion orders (and therefore different internal
// layouts Go will iterate differently) and checks the digest never moves.
// This is the determinism property the result cache's correctness rests on.
func TestDigestStableAcrossMapIterationOrder(t *testing.T) {
	want := fullDigest(baseRequest())
	names := []string{"Gender", "Race", "intersection", "k3", "k4", "k5", "k6", "k7"}
	vals := map[string]float64{"Gender": 0.1, "Race": 0.3, "intersection": 0.25,
		"k3": 0.3, "k4": 0.4, "k5": 0.5, "k6": 0.6, "k7": 0.7}
	wide := func(order []int) string {
		req := baseRequest()
		req.Thresholds = make(map[string]float64)
		for _, i := range order {
			req.Thresholds[names[i]] = vals[names[i]]
		}
		return fullDigest(req)
	}
	forward := wide([]int{0, 1, 2, 3, 4, 5, 6, 7})
	for trial := 0; trial < 50; trial++ {
		// Rotate the insertion order; identical contents must digest alike.
		order := make([]int, len(names))
		for i := range order {
			order[i] = (i + trial) % len(names)
		}
		if got := wide(order); got != forward {
			t.Fatalf("digest moved with insertion order %v: %s != %s", order, got, forward)
		}
	}
	for trial := 0; trial < 20; trial++ {
		if got := fullDigest(baseRequest()); got != want {
			t.Fatalf("digest of identical request moved: %s != %s", got, want)
		}
	}
}

// TestDigestStableAcrossJSONRoundTrip: a request decoded from JSON (any key
// order) digests identically to the in-memory original.
func TestDigestStableAcrossJSONRoundTrip(t *testing.T) {
	req := baseRequest()
	want := fullDigest(req)
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var decoded AggregateRequest
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	if got := fullDigest(&decoded); got != want {
		t.Fatalf("digest moved across JSON round trip: %s != %s", got, want)
	}
	// Same request spelled with reordered JSON keys.
	reordered := `{
		"options": {"max_nodes": 1000, "seed": 7, "strength": 4, "perturbations": 16, "exact_threshold": 10},
		"thresholds": {"intersection": 0.25, "Race": 0.3, "Gender": 0.1},
		"delta": 0.2,
		"attributes": [
			{"of": [0,1,0,1], "values": ["M","W"], "name": "Gender"},
			{"of": [0,0,1,1], "values": ["A","B"], "name": "Race"}
		],
		"profile": [[0,1,2,3],[1,0,3,2],[0,2,1,3]],
		"method": "fair-kemeny"
	}`
	var decoded2 AggregateRequest
	if err := json.Unmarshal([]byte(reordered), &decoded2); err != nil {
		t.Fatal(err)
	}
	if got := fullDigest(&decoded2); got != want {
		t.Fatalf("digest moved across reordered JSON: %s != %s", got, want)
	}
}

// TestDigestSeparatesSemanticChanges: every field that influences the result
// must separate the digest; the deadline must not.
func TestDigestSeparatesSemanticChanges(t *testing.T) {
	want := fullDigest(baseRequest())
	mutations := map[string]func(*AggregateRequest){
		"method":         func(r *AggregateRequest) { r.Method = "fair-borda" },
		"profile row":    func(r *AggregateRequest) { r.Profile[2] = []int{3, 2, 1, 0} },
		"profile size":   func(r *AggregateRequest) { r.Profile = r.Profile[:2] },
		"delta":          func(r *AggregateRequest) { r.Delta = 0.21 },
		"threshold val":  func(r *AggregateRequest) { r.Thresholds["Gender"] = 0.11 },
		"threshold key":  func(r *AggregateRequest) { delete(r.Thresholds, "Race") },
		"attribute name": func(r *AggregateRequest) { r.Attributes[0].Name = "Sex" },
		"attribute of":   func(r *AggregateRequest) { r.Attributes[0].Of = []int{1, 0, 1, 0} },
		"attr values":    func(r *AggregateRequest) { r.Attributes[0].Values = []string{"M", "X"} },
		"seed":           func(r *AggregateRequest) { r.Options.Seed = 8 },
		"perturbations":  func(r *AggregateRequest) { r.Options.Perturbations = 17 },
		"strength":       func(r *AggregateRequest) { r.Options.Strength = 5 },
		"exact":          func(r *AggregateRequest) { r.Options.ExactThreshold = 11 },
		"max nodes":      func(r *AggregateRequest) { r.Options.MaxNodes = 1001 },
	}
	for name, mutate := range mutations {
		req := baseRequest()
		mutate(req)
		if fullDigest(req) == want {
			t.Errorf("mutation %q did not change the digest", name)
		}
	}
	req := baseRequest()
	req.DeadlineMillis = 12345
	if fullDigest(req) != want {
		t.Error("deadline_ms changed the digest; deadlines must not shard the cache")
	}
	// The intersection threshold key is case-insensitive at build time, so
	// its spelling must not shard the cache either — canonicalised before
	// the sorted serialisation.
	req = baseRequest()
	delete(req.Thresholds, "intersection")
	req.Thresholds["Intersection"] = 0.25
	if fullDigest(req) != want {
		t.Error("intersection-key case changed the digest despite identical semantics")
	}
}

// TestDigestNoFieldConcatenationCollisions: length prefixes must keep
// adjacent variable-length fields separated.
func TestDigestNoFieldConcatenationCollisions(t *testing.T) {
	a := &AggregateRequest{Method: "borda", Profile: [][]int{{0, 1}, {1, 0}},
		Attributes: []AttributeSpec{{Name: "ab", Values: []string{"cd"}, Of: []int{0, 0}}}}
	b := &AggregateRequest{Method: "borda", Profile: [][]int{{0, 1}, {1, 0}},
		Attributes: []AttributeSpec{{Name: "abc", Values: []string{"d"}, Of: []int{0, 0}}}}
	if fullDigest(a) == fullDigest(b) {
		t.Fatal("shifted attribute name/value boundary collided")
	}
}

// TestDigestCanonicalisesMethodSpelling pins the method-name canonical
// form to what manirank.ParseMethod accepts: padding and case must not
// fragment the cache — " Fair-Kemeny " and "fair-kemeny" are one entry,
// one coalesced flight.
func TestDigestCanonicalisesMethodSpelling(t *testing.T) {
	want := fullDigest(baseRequest())
	for _, spelling := range []string{"Fair-Kemeny", " fair-kemeny ", "\tFAIR-KEMENY\n"} {
		req := baseRequest()
		req.Method = spelling
		if got := fullDigest(req); got != want {
			t.Errorf("method spelling %q digests to %s, canonical digests to %s", spelling, got, want)
		}
	}
}

// TestDigestGolden pins the bytes of every cache key: disk entries, peers
// and the manirankd/v2 namespace all key on them, so a change to the
// canonical serialisation (or to how a profile decodes) must fail here,
// not silently orphan every persisted entry. The request is spelled out
// rather than taken from baseRequest so that editing a shared fixture can
// never move the pins.
func TestDigestGolden(t *testing.T) {
	const (
		wantFull      = "87213646f3c216373113576b266b2bc94dbb959cb047b6074733e2eb8c36c670"
		wantProfile   = "9fcc0981927f13abc21e9f5d245c789e112d7797af27e8a4a01b088d50ac8100"
		wantSessWarm  = "a4cfaddbbf6f8a86f651255872fe297ef10eb7e63d44df08a0b3cce1a0ca36fe"
		wantSessEmpty = "4a6442cc11d210d956b9b65510dfec759953f53ab86e175814802a1752661147"
	)
	req := &AggregateRequest{
		Method:  "fair-kemeny",
		Profile: [][]int{{0, 1, 2, 3}, {1, 0, 3, 2}, {0, 2, 1, 3}},
		Attributes: []AttributeSpec{
			{Name: "Gender", Values: []string{"M", "W"}, Of: []int{0, 1, 0, 1}},
			{Name: "Race", Values: []string{"A", "B"}, Of: []int{0, 0, 1, 1}},
		},
		Delta:      0.2,
		Thresholds: map[string]float64{"Gender": 0.1, "Race": 0.3, "intersection": 0.25},
		Options:    SolverOptions{Seed: 7, Perturbations: 16, Strength: 4, ExactThreshold: 10, MaxNodes: 1000},
	}
	check := func(how string, req *AggregateRequest) {
		t.Helper()
		full, profile := Digests(req)
		for _, c := range []struct{ name, got, want string }{
			{"full digest", full, wantFull},
			{"profile sub-digest", profile, wantProfile},
			{"session digest, warm seed", SessionDigest(full, ranking.Ranking{2, 0, 3, 1}), wantSessWarm},
			{"session digest, empty seed", SessionDigest(full, nil), wantSessEmpty},
		} {
			if c.got != c.want {
				t.Errorf("%s: %s = %s, want %s", how, c.name, c.got, c.want)
			}
		}
	}
	check("in memory", req)
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var decoded AggregateRequest
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	check("after a JSON round trip", &decoded)
}
