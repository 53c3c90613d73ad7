package obs

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(1.5)
	g.Add(-0.5)
	if got := g.Value(); got != 1.0 {
		t.Fatalf("gauge = %v, want 1", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(LatencyBuckets())
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", q)
	}
	// 1ms..100ms uniform: p50 ~ 50ms, p99 ~ 99ms; log buckets are 2x wide,
	// so accept a factor-of-two window around the truth.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 1000)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	if sum := h.Sum(); math.Abs(sum-5.05) > 1e-9 {
		t.Fatalf("sum = %v, want 5.05", sum)
	}
	if max := h.Max(); max != 0.1 {
		t.Fatalf("max = %v, want 0.1", max)
	}
	p50 := h.Quantile(0.5)
	if p50 < 0.025 || p50 > 0.1 {
		t.Fatalf("p50 = %v, want within [0.025, 0.1]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 0.05 || p99 > 0.2 {
		t.Fatalf("p99 = %v, want within [0.05, 0.2]", p99)
	}
	if p50 > p99 {
		t.Fatalf("p50 %v > p99 %v", p50, p99)
	}
}

func TestHistogramOverflowAndClamp(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(-5) // clamps to 0 -> first bucket
	h.Observe(100)
	h.Observe(200)
	if q := h.Quantile(1); q != 200 {
		t.Fatalf("overflow quantile = %v, want exact max 200", q)
	}
	snap := h.Snapshot()
	wantCum := []uint64{1, 1, 3}
	for i, w := range wantCum {
		if snap.Counts[i] != w {
			t.Fatalf("cumulative counts = %v, want %v", snap.Counts, wantCum)
		}
	}
}

func TestHistogramPanics(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"empty":    {},
		"unsorted": {2, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHistogram(%s) did not panic", name)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

// metricsLine is the grammar scripts/smoke_serve.sh enforces on /metricsz.
var metricsLine = regexp.MustCompile(`^[a-z_]+(\{[^}]*\})? [0-9.e+-]+$|^#`)

func TestRegistryPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("manirank_requests_total", "requests", L("status", "200")).Add(7)
	shared := new(Counter)
	shared.Add(3)
	r.RegisterCounter("manirank_cache_hits_total", "hits per tier", shared, L("tier", "result"))
	r.CounterFunc("manirank_cache_builds_skipped_total", "derived", func() uint64 { return 11 }, L("tier", "matrix"))
	r.Gauge("manirank_queue_depth", "queued").Set(2)
	r.GaugeFunc("manirank_cache_hit_rate_predicted", "che", func() float64 { return math.NaN() }, L("tier", "result"))
	h := r.Histogram("manirank_solve_seconds", "solve latency", LatencyBuckets(), L("method", "kemeny"))
	h.Observe(0.004)
	h.Observe(0.05)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !metricsLine.MatchString(line) {
			t.Fatalf("line fails smoke grammar: %q", line)
		}
	}
	for _, want := range []string{
		`manirank_requests_total{status="200"} 7`,
		`manirank_cache_hits_total{tier="result"} 3`,
		`manirank_cache_builds_skipped_total{tier="matrix"} 11`,
		"manirank_queue_depth 2",
		`manirank_cache_hit_rate_predicted{tier="result"} 0`, // NaN sanitized
		`manirank_solve_seconds_count{method="kemeny"} 2`,
		`manirank_solve_seconds_bucket{method="kemeny",le="+Inf"} 2`,
		"# TYPE manirank_solve_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Shared counter: the registry must read the adopted atomic live.
	shared.Inc()
	b.Reset()
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `manirank_cache_hits_total{tier="result"} 4`) {
		t.Fatal("adopted counter not read live")
	}
	// Bucket counts must be cumulative and non-decreasing.
	prev := -1.0
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "manirank_solve_seconds_bucket") {
			v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			if v < prev {
				t.Fatalf("bucket counts not cumulative: %v after %v", v, prev)
			}
			prev = v
		}
	}
}

// TestRegistryValue: Value reads every counter and gauge source live, maps
// non-finite gauges to 0, matches labels in any order, and panics on a
// series that is not registered (wrong name, wrong labels, or a histogram).
func TestRegistryValue(t *testing.T) {
	r := NewRegistry()
	r.Counter("manirank_requests_total", "requests", L("status", "200")).Add(7)
	shared := new(Counter)
	r.RegisterCounter("manirank_cache_hits_total", "hits", shared, L("tier", "result"), L("node", "a"))
	r.CounterFunc("manirank_derived_total", "derived", func() uint64 { return 11 })
	r.Gauge("manirank_queue_depth", "queued").Set(2.5)
	r.GaugeFunc("manirank_rate", "rate", func() float64 { return math.Inf(1) })
	r.Histogram("manirank_solve_seconds", "solve", LatencyBuckets())

	shared.Add(3)
	for _, c := range []struct {
		got, want float64
	}{
		{r.Value("manirank_requests_total", L("status", "200")), 7},
		{r.Value("manirank_cache_hits_total", L("node", "a"), L("tier", "result")), 3},
		{r.Value("manirank_derived_total"), 11},
		{r.Value("manirank_queue_depth"), 2.5},
		{r.Value("manirank_rate"), 0},
	} {
		if c.got != c.want {
			t.Errorf("Value = %v, want %v", c.got, c.want)
		}
	}
	for _, missing := range []func(){
		func() { r.Value("manirank_nope_total") },
		func() { r.Value("manirank_requests_total", L("status", "500")) },
		func() { r.Value("manirank_requests_total") },
		func() { r.Value("manirank_solve_seconds") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Value of an unregistered series did not panic")
				}
			}()
			missing()
		}()
	}
}

func TestRegistryIdempotentAndPanics(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("manirank_a_total", "a")
	b := r.Counter("manirank_a_total", "a")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("kind conflict did not panic")
			}
		}()
		r.Gauge("manirank_a_total", "a")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("digit in name did not panic")
			}
		}()
		r.Counter("manirank_p99", "bad name")
	}()
}

func TestTraceSpansAndContext(t *testing.T) {
	tr := NewTrace("kemeny", "abc123")
	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace lost in context")
	}
	end := StartSpan(ctx, "solve")
	time.Sleep(5 * time.Millisecond)
	end()
	tr.AddSpan("encode", tr.Begin, tr.Begin.Add(time.Millisecond))
	wall := tr.Finish()
	if again := tr.Finish(); again != wall {
		t.Fatalf("Finish not idempotent: %v then %v", wall, again)
	}
	snap := tr.Snapshot()
	if snap.Name != "kemeny" || snap.Detail != "abc123" || len(snap.Spans) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Spans[0].Name != "solve" || snap.Spans[0].DurationMS < 4 {
		t.Fatalf("solve span = %+v", snap.Spans[0])
	}
	if snap.WallMS <= 0 {
		t.Fatalf("wall = %v", snap.WallMS)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.StartSpan("x")()
	tr.AddSpan("y", time.Now(), time.Now())
	if tr.Finish() != 0 || tr.Wall() != 0 || tr.Spans() != nil {
		t.Fatal("nil trace not inert")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context yielded a trace")
	}
	StartSpan(context.Background(), "z")() // must not panic
	if got := WithTrace(context.Background(), nil); got != context.Background() {
		t.Fatal("WithTrace(nil) should return ctx unchanged")
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace("cap", "")
	now := time.Now()
	for i := 0; i < maxSpans+10; i++ {
		tr.AddSpan(fmt.Sprintf("s_%d", i), now, now)
	}
	tr.Finish()
	snap := tr.Snapshot()
	if len(snap.Spans) != maxSpans || snap.SpansDropped != 10 {
		t.Fatalf("spans = %d dropped = %d, want %d and 10", len(snap.Spans), snap.SpansDropped, maxSpans)
	}
}

// TestTraceSpanPerNameCap: a chatty repeated stage (solver descent passes)
// saturates its own name's budget without starving later distinct stages —
// the request skeleton ("solve", "encode") must still record after
// thousands of child spans.
func TestTraceSpanPerNameCap(t *testing.T) {
	tr := NewTrace("cap", "")
	now := time.Now()
	for i := 0; i < maxSpansPerName*40; i++ {
		tr.AddSpan("kemeny_descent_pass", now, now)
	}
	tr.AddSpan("solve", now, now)
	tr.AddSpan("encode", now, now)
	tr.Finish()
	snap := tr.Snapshot()
	byName := map[string]int{}
	for _, sp := range snap.Spans {
		byName[sp.Name]++
	}
	if byName["kemeny_descent_pass"] != maxSpansPerName {
		t.Fatalf("chatty stage kept %d spans, want %d", byName["kemeny_descent_pass"], maxSpansPerName)
	}
	if byName["solve"] != 1 || byName["encode"] != 1 {
		t.Fatalf("late stages starved by chatty stage: %+v", byName)
	}
	if snap.SpansDropped != maxSpansPerName*39 {
		t.Fatalf("dropped = %d, want %d", snap.SpansDropped, maxSpansPerName*39)
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("conc", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			name := fmt.Sprintf("restart_%d", id)
			for j := 0; j < 50; j++ {
				tr.StartSpan(name)()
			}
		}(i)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 400 {
		t.Fatalf("spans = %d, want 400", got)
	}
}

// finished builds a trace whose wall time is exactly d; the test lives in
// package obs so it can stamp the wall directly instead of sleeping.
func finished(name string, d time.Duration) *Trace {
	tr := NewTrace(name, "")
	tr.wall = d
	return tr
}

func TestTraceRingEvictionOrder(t *testing.T) {
	r := NewTraceRing(3, 2)
	a := finished("a", 10*time.Millisecond)
	b := finished("b", 30*time.Millisecond)
	c := finished("c", 20*time.Millisecond)
	d := finished("d", 5*time.Millisecond)
	for _, tr := range []*Trace{a, b, c, d} {
		r.Add(tr)
	}
	recent, slowest := r.Snapshot()
	// Recent ring holds the newest 3, newest first: d, c, b.
	if len(recent) != 3 || recent[0].Name != "d" || recent[1].Name != "c" || recent[2].Name != "b" {
		t.Fatalf("recent = %+v", names(recent))
	}
	// Slowest-2: b (30ms) and c (20ms) — d must NOT evict anything, and the
	// order is descending wall time.
	if len(slowest) != 2 || slowest[0].Name != "b" || slowest[1].Name != "c" {
		t.Fatalf("slowest = %+v", names(slowest))
	}
	// A tie with the current minimum keeps the incumbent.
	e := finished("e", c.Wall())
	r.Add(e)
	_, slowest = r.Snapshot()
	if slowest[1].Name != "c" {
		t.Fatalf("tie evicted incumbent: slowest = %+v", names(slowest))
	}
	// Strictly slower evicts the minimum.
	f := finished("f", 25*time.Millisecond)
	r.Add(f)
	_, slowest = r.Snapshot()
	if slowest[0].Name != "b" || slowest[1].Name != "f" {
		t.Fatalf("slowest after f = %+v", names(slowest))
	}
	r.Add(nil) // must not panic
}

func names(ts []TraceSnapshot) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name
	}
	return out
}

func TestCheEstimator(t *testing.T) {
	e := NewCheEstimator()
	if p := e.Predict(10); p != 0 {
		t.Fatalf("empty predict = %v, want 0", p)
	}
	// 4 keys, 10 accesses each: capacity >= 4 holds everything, so only
	// the 4 compulsory misses remain: predicted = 1 - 4/40 = 0.9.
	for i := 0; i < 10; i++ {
		for _, k := range []string{"a", "b", "c", "d"} {
			e.Observe(k)
		}
	}
	if p := e.Predict(4); math.Abs(p-0.9) > 1e-9 {
		t.Fatalf("full-capacity predict = %v, want 0.9", p)
	}
	if p := e.Predict(0); p != 0 {
		t.Fatalf("zero capacity predict = %v, want 0", p)
	}
	// Under contention the prediction must be monotone in capacity and
	// bounded by the full-capacity value.
	p1, p2, p3 := e.Predict(1), e.Predict(2), e.Predict(3)
	if !(p1 <= p2 && p2 <= p3 && p3 <= 0.9+1e-9) {
		t.Fatalf("not monotone: %v %v %v", p1, p2, p3)
	}
	if p1 <= 0 {
		t.Fatalf("capacity-1 predict = %v, want > 0", p1)
	}
}

func TestCheDecayBounds(t *testing.T) {
	e := NewCheEstimator()
	// Blow past the key cap with unique keys; the map must stay bounded.
	for i := 0; i < cheMaxKeys*3; i++ {
		e.Observe(string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26)) + string(rune('0'+i%10)))
	}
	if got := e.Keys(); got > cheMaxKeys {
		t.Fatalf("keys = %d, want <= %d", got, cheMaxKeys)
	}
}
