package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one request share the request span as
// their parent.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory while it is on; a nil or off tracer records
// nothing and costs one atomic load per call.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

var noEnd = func() {}

// begin opens a span and returns its id and the function that closes it.
func (t *tracer) begin(name string, parent int64) (int64, func()) {
	if t == nil || !t.on.Load() {
		return 0, noEnd
	}
	id := t.next.Add(1)
	start := time.Since(t.t0)
	return id, func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(start), End: int64(end)})
		t.mu.Unlock()
	}
}

// timed runs fn inside a span named name.
func (t *tracer) timed(name string, fn func()) {
	_, end := t.begin(name, 0)
	fn()
	end()
}

// meanMS is the mean duration of the spans named name, in milliseconds, or
// 0 when there are none.
func (t *tracer) meanMS(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += time.Duration(s.End - s.Start)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return msOf(sum) / float64(n)
}

// write stores every span as one JSON line in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// tracePath is where a traced run leaves its spans, inside the checkout's
// build directory.
func tracePath(workload string, seed int64) string {
	return filepath.Join(".bench_build", "traces", workload+"-seed"+strconv.FormatInt(seed, 10)+".jsonl")
}

// heapSampler records the peak live-heap size while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapMetric}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak.Load() {
			h.peak.Store(v)
		}
	}
	read()
	go func() {
		defer close(h.done)
		tk := time.NewTicker(every)
		defer tk.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tk.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak.Load()) / (1 << 20)
}
