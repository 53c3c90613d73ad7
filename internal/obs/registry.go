package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is a metric family's type.
type Kind int

// The registered metric kinds, mapping one-to-one onto Prometheus types.
const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a bucketed distribution.
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labelled member of a family. Exactly one of the value
// sources is set, matching the family kind (functions stand in for values
// computed at scrape time).
type series struct {
	labels    []Label
	sig       string // canonical label signature, for dedup and sort
	counter   *Counter
	counterFn func() uint64
	gauge     *Gauge
	gaugeFn   func() float64
	hist      *Histogram
}

// family groups all series sharing one metric name.
type family struct {
	name, help string
	kind       Kind
	series     []*series
}

// Registry is a typed metric registry: counters, gauges, and histograms,
// each a named family of label-qualified series, exposable in Prometheus
// text format (WritePrometheus). Registration methods either create a
// series or return the already-registered one, so wiring code can be
// idempotent; registering a name twice with a different kind panics
// (programmer error, like a duplicate flag).
//
// Every label set is declared at registration time — there is no
// register-on-first-use keyed by runtime strings, which is what keeps the
// series cardinality bounded by construction.
//
// A Registry is safe for concurrent use. The zero value is not usable;
// construct with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// metricNameOK enforces the exposition-safe name alphabet. Digits are
// deliberately excluded: quantile-flavoured names (p99) belong in labels
// or PromQL, not in metric names, and the serving smoke test's line
// grammar is ^[a-z_]+ exactly.
func metricNameOK(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		if (r < 'a' || r > 'z') && r != '_' {
			return false
		}
	}
	return true
}

// signature canonicalises a label set (sorted by name) for dedup and
// deterministic exposition order.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// register resolves (name, labels) to its series, creating family and
// series as needed. Callers hold no locks.
func (r *Registry) register(name, help string, kind Kind, labels []Label) (*series, bool) {
	if !metricNameOK(name) {
		panic(fmt.Sprintf("obs: metric name %q must match [a-z_]+", name))
	}
	for _, l := range labels {
		if !metricNameOK(l.Name) {
			panic(fmt.Sprintf("obs: label name %q must match [a-z_]+", l.Name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as both %v and %v", name, f.kind, kind))
	}
	sig := signature(labels)
	for _, s := range f.series {
		if s.sig == sig {
			return s, false
		}
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	s := &series{labels: ls, sig: sig}
	f.series = append(f.series, s)
	return s, true
}

// Counter registers (or returns the existing) counter series under name
// with the given labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s, fresh := r.register(name, help, KindCounter, labels)
	if fresh {
		s.counter = new(Counter)
	}
	return s.counter
}

// RegisterCounter adopts an externally owned Counter as a series — the
// mechanism by which the cache tiers' live counters become registry
// members without copying: the tier increments the atomic, and every
// rendering of the registry (WritePrometheus, Value) reads it. Re-registering
// an existing (name, labels) series replaces its source.
func (r *Registry) RegisterCounter(name, help string, c *Counter, labels ...Label) {
	s, _ := r.register(name, help, KindCounter, labels)
	s.counter, s.counterFn = c, nil
}

// CounterFunc registers a counter series computed at scrape time — for
// monotone values derived from other counters (e.g. builds skipped =
// hits + coalesced + disk hits).
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	s, _ := r.register(name, help, KindCounter, labels)
	s.counterFn, s.counter = fn, nil
}

// Gauge registers (or returns the existing) gauge series under name.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s, fresh := r.register(name, help, KindGauge, labels)
	if fresh {
		s.gauge = new(Gauge)
	}
	return s.gauge
}

// GaugeFunc registers a gauge series computed at scrape time — queue
// depth read from the scheduler's atomics, cache residency read from the
// tier, predicted hit rates read from the estimator.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s, _ := r.register(name, help, KindGauge, labels)
	s.gaugeFn, s.gauge = fn, nil
}

// Histogram registers (or returns the existing) histogram series under
// name with the given bucket bounds (see NewHistogram, LatencyBuckets).
// Bounds are fixed by the first registration of the family.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s, fresh := r.register(name, help, KindHistogram, labels)
	if fresh {
		s.hist = NewHistogram(bounds)
	}
	return s.hist
}

// Value returns the current value of the counter or gauge series (name,
// labels), as /metricsz would render it: counters as floats, non-finite
// gauges as 0 (so a JSON view never meets a NaN). Naming a series that was
// never registered, or a histogram, panics — a view reading a series no
// one registers is a programmer error, like registering one name under two
// kinds.
func (r *Registry) Value(name string, labels ...Label) float64 {
	sig := signature(labels)
	r.mu.Lock()
	var s series
	found := false
	if f, ok := r.families[name]; ok && f.kind != KindHistogram {
		for _, fs := range f.series {
			if fs.sig == sig {
				s, found = *fs, true
				break
			}
		}
	}
	r.mu.Unlock()
	switch {
	case !found:
		panic(fmt.Sprintf("obs: no counter or gauge series %s%s", name, formatLabels(labels)))
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.counterFn != nil:
		return float64(s.counterFn())
	case s.gauge != nil:
		return finite(s.gauge.Value())
	case s.gaugeFn != nil:
		return finite(s.gaugeFn())
	}
	return 0
}

// finite maps NaN and ±Inf to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// escapeLabelValue escapes a label value per the Prometheus text format.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// formatLabels renders {a="x",b="y"} sorted by label name, with extra
// appended last (the histogram "le" label); empty input renders nothing.
func formatLabels(labels []Label, extra ...Label) string {
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	ls = append(ls, extra...)
	if len(ls) == 0 {
		return ""
	}
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.Name + `="` + escapeLabelValue(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// formatValue renders a sample value; non-finite values render as 0 so a
// transient NaN (e.g. a rate before any traffic) can never corrupt the
// exposition a scraper parses.
func formatValue(v float64) string {
	return strconv.FormatFloat(finite(v), 'g', -1, 64)
}

// WritePrometheus writes every registered family in Prometheus text
// exposition format (version 0.0.4): families sorted by name, series by
// label signature, histograms as cumulative le-buckets plus _sum and
// _count. The output is deterministic for a fixed registry state.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		ser := make([]*series, len(f.series))
		r.mu.Lock()
		copy(ser, f.series)
		r.mu.Unlock()
		sort.Slice(ser, func(i, j int) bool { return ser[i].sig < ser[j].sig })
		for _, s := range ser {
			switch f.kind {
			case KindCounter:
				v := uint64(0)
				if s.counter != nil {
					v = s.counter.Value()
				} else if s.counterFn != nil {
					v = s.counterFn()
				}
				fmt.Fprintf(&b, "%s%s %s\n", f.name, formatLabels(s.labels), strconv.FormatUint(v, 10))
			case KindGauge:
				v := 0.0
				if s.gauge != nil {
					v = s.gauge.Value()
				} else if s.gaugeFn != nil {
					v = s.gaugeFn()
				}
				fmt.Fprintf(&b, "%s%s %s\n", f.name, formatLabels(s.labels), formatValue(v))
			case KindHistogram:
				snap := s.hist.Snapshot()
				for i, c := range snap.Counts {
					le := "+Inf"
					if i < len(snap.Bounds) {
						le = formatValue(snap.Bounds[i])
					}
					fmt.Fprintf(&b, "%s_bucket%s %s\n", f.name, formatLabels(s.labels, L("le", le)), strconv.FormatUint(c, 10))
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, formatLabels(s.labels), formatValue(snap.Sum))
				fmt.Fprintf(&b, "%s_count%s %s\n", f.name, formatLabels(s.labels), strconv.FormatUint(snap.Count, 10))
			}
		}
	}
	io.WriteString(w, b.String())
}
