// Package cache implements manirankd's cache tiers.
//
// Both tiers are instances of one generic type, Tier[V]: a map keyed by
// canonical digests whose admission is bounded by a cost budget, evicted in
// least-recently-used order (every resident entry sits in one recency list
// the tier owns, so a hit is a map lookup plus a move to the front), with
// hit/miss/eviction counters and single-flight coalescing so any number of
// concurrent identical lookups trigger exactly one computation. A value is a
// pure function of its digest key and the versioned namespace, so it cannot
// go stale: an entry leaves a tier only by eviction.
//
// The serving layer runs two of them. The consensus result tier is keyed by
// request digest and charges one unit per entry (so its budget is an entry
// count). The precedence-matrix tier is keyed by the profile sub-digest,
// since profiles are shared across methods, and is bounded by memory cost
// (n² cells per entry) — ten small profiles and one n=500 matrix are priced
// honestly against the same budget.
//
// Either tier can sit on a persistent Store (store.go, filestore.go): a
// content-addressed byte store under the same digest keys, written through
// on every admission and consulted on memory misses, so a restarted process
// serves its previous working set warm (snapshot-on-shutdown via Flush plus
// lazy warm-on-miss restore). Keys on disk live under a {digest version,
// engine version} namespace, so a solver-behaviour bump invalidates every
// persisted entry by making it unreachable rather than by deleting it.
//
// Consensus rankings are expensive (Fair-Kemeny restarts) but perfectly
// reusable — the solvers are deterministic per request, so a digest hit is
// semantically identical to recomputing. Sizing follows the classic cache
// performance analyses (Che approximation; Martina et al., arXiv:1307.6702):
// with a Zipf-skewed request popularity the hit ratio of an LRU tier is
// governed by the cache-size/working-set ratio, which the serving layer's
// per-tier Che estimator predicts live and perfbench's serve workloads
// measure end to end — and the same analyses predict the hit rate a
// persistent second-chance tier recovers after a cold start, which BENCH_7's
// restart axis measures.
package cache

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"manirank/internal/obs"
)

// Stats is a point-in-time snapshot of a tier's counters.
type Stats struct {
	// Hits counts Do calls served from memory.
	Hits uint64
	// Misses counts Do calls that found nothing in memory (computes, joins,
	// disk restores and peer fetches).
	Misses uint64
	// Coalesced counts Do calls that joined another caller's in-flight
	// computation instead of starting their own (a subset of Misses).
	Coalesced uint64
	// Builds counts successful computations — the work actually paid.
	Builds uint64
	// BuildsSkipped counts Do calls that returned a value without computing
	// on this node: Hits + Coalesced + DiskHits + PeerHits.
	BuildsSkipped uint64
	// Evictions counts entries dropped by budget pressure.
	Evictions uint64
	// Rejected counts values costing more than the whole budget, which are
	// never admitted to memory.
	Rejected uint64
	// DiskHits counts Do calls served by restoring an entry from the
	// persistent store (a subset of Misses; zero without an attached Store).
	DiskHits uint64
	// DiskPuts counts successful write-throughs to the persistent store.
	DiskPuts uint64
	// DiskErrors counts persistent-store failures the tier absorbed
	// (unreadable, corrupt, or unencodable entries, failed writes).
	DiskErrors uint64
	// PeerHits counts Do calls served by a fleet peer fetch (a subset of
	// Misses; zero without an attached fleet).
	PeerHits uint64
	// PeerMisses counts peer fetches answered with an authoritative miss.
	PeerMisses uint64
	// PeerErrors counts peer fetches that failed (timeout, dead peer,
	// decode failure) and degraded to local compute.
	PeerErrors uint64
	// Entries is the current number of stored values.
	Entries int
	// CostUsed is the summed cost of the stored values.
	CostUsed int64
	// CostBudget is the configured cost capacity.
	CostBudget int64
	// InFlight is the current number of leader computations running.
	InFlight int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any traffic. Disk
// restores count toward Misses here; the warm-serving rate including them is
// (Hits + DiskHits) / (Hits + Misses).
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Counters exposes a tier's live counters. The tier owns the atomics and
// increments them; the serving layer adopts the same pointers into its
// obs.Registry, the one source its /statz and /metricsz both render.
type Counters struct {
	// Hits counts Do calls served from memory.
	Hits *obs.Counter
	// Misses counts Do calls that had to compute, join, restore or fetch.
	Misses *obs.Counter
	// Coalesced counts Do calls that joined an in-flight computation.
	Coalesced *obs.Counter
	// Builds counts successful computations.
	Builds *obs.Counter
	// Evictions counts entries dropped by budget pressure.
	Evictions *obs.Counter
	// Rejected counts values too costly to admit at all.
	Rejected *obs.Counter
	// DiskHits counts Do calls served by a persistent-store restore.
	DiskHits *obs.Counter
	// DiskPuts counts successful write-throughs to the persistent store.
	DiskPuts *obs.Counter
	// DiskErrors counts persistent-store failures the tier absorbed.
	DiskErrors *obs.Counter
	// PeerHits counts Do calls served by a fleet peer fetch.
	PeerHits *obs.Counter
	// PeerMisses counts peer fetches answered with an authoritative miss.
	PeerMisses *obs.Counter
	// PeerErrors counts peer fetches that failed and fell back to compute.
	PeerErrors *obs.Counter
}

// BuildsSkipped derives the tier's reason to exist: Do calls that returned
// a value without computing on this node (a peer hit skips the local
// computation even though the owner paid one somewhere).
func (c Counters) BuildsSkipped() uint64 {
	return c.Hits.Value() + c.Coalesced.Value() + c.DiskHits.Value() + c.PeerHits.Value()
}

// ErrNotAsked is what a FetchFunc returns when it consulted no peer at all
// (no live peer): the tier counts nothing and computes.
var ErrNotAsked = errors.New("cache: no peer asked")

// FetchFunc is the fleet hook Do tries after memory and disk miss and
// before computing: typically a bounded peer read from the key's rendezvous
// owner. It returns the decoded value with found=true on a peer hit,
// found=false on an authoritative miss, and ErrNotAsked when no fetch was
// attempted.
type FetchFunc[V any] func(ctx context.Context) (value V, found bool, err error)

// Config shapes a Tier.
type Config[V any] struct {
	// Name prefixes the tier's trace spans: <Name>_lookup, _wait,
	// _disk_read, _disk_write and _peer_read.
	Name string
	// Budget bounds the summed cost of the stored values. Budget <= 0
	// disables storage — concurrent identical lookups still coalesce —
	// making 0 the "cache off" switch.
	Budget int64
	// Cost prices a value for admission; nil charges 1 per entry, making
	// Budget an entry count.
	Cost func(V) int64
	// Size prices a value's resident bytes for Bytes; nil reports 0.
	Size func(V) int64
}

// spanNames are a tier's trace span names, built once from Config.Name.
type spanNames struct{ lookup, wait, diskRead, diskWrite, peerRead string }

// entry is one stored value and its place in the tier's recency list.
type entry[V any] struct {
	key   string
	value V
	cost  int64
	el    *list.Element // in Tier.lru; Value is the *entry itself
}

// flight is one in-progress computation that concurrent identical lookups
// coalesce onto.
type flight[V any] struct {
	done  chan struct{}
	value V
	err   error
}

// errComputePanic resolves a flight whose computation panicked. The panic
// itself propagates to the leader's caller; followers must see this
// sentinel — not context.Canceled, which would misread as a caller
// cancellation.
var errComputePanic = errors.New("cache: compute panicked")

// Tier is a thread-safe, cost-budgeted value store with LRU eviction,
// single-flight coalescing, and an optional persistent second-chance tier
// (AttachStore). Construct with New.
type Tier[V any] struct {
	budget int64
	cost   func(V) int64
	size   func(V) int64
	spans  spanNames

	mu      sync.Mutex
	used    int64
	items   map[string]*entry[V]
	lru     *list.List // front = most recently used
	flights map[string]*flight[V]

	store Store // nil: memory only
	codec Codec[V]

	counters Counters
}

// New returns an empty tier shaped by cfg.
func New[V any](cfg Config[V]) *Tier[V] {
	n := cfg.Name
	return &Tier[V]{
		budget: cfg.Budget,
		cost:   cfg.Cost,
		size:   cfg.Size,
		spans: spanNames{
			lookup:    n + "_lookup",
			wait:      n + "_wait",
			diskRead:  n + "_disk_read",
			diskWrite: n + "_disk_write",
			peerRead:  n + "_peer_read",
		},
		items:   make(map[string]*entry[V]),
		lru:     list.New(),
		flights: make(map[string]*flight[V]),
		counters: Counters{
			Hits:       new(obs.Counter),
			Misses:     new(obs.Counter),
			Coalesced:  new(obs.Counter),
			Builds:     new(obs.Counter),
			Evictions:  new(obs.Counter),
			Rejected:   new(obs.Counter),
			DiskHits:   new(obs.Counter),
			DiskPuts:   new(obs.Counter),
			DiskErrors: new(obs.Counter),
			PeerHits:   new(obs.Counter),
			PeerMisses: new(obs.Counter),
			PeerErrors: new(obs.Counter),
		},
	}
}

// Counters returns the tier's live counters for registry adoption.
func (t *Tier[V]) Counters() Counters { return t.counters }

// AttachStore puts the persistent tier under the memory tier: every admitted
// value is written through (encoded by codec), and a memory miss consults
// the store before computing — the lazy warm-on-miss restore path a
// restarted process serves from. A nil Store detaches the persistent tier,
// leaving the tier memory-only.
func (t *Tier[V]) AttachStore(s Store, codec Codec[V]) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.store = s
	t.codec = codec
}

// Bytes returns the resident footprint of the stored values per
// Config.Size (0 without one). It copies out every resident value — priced
// for scrape-time calls, not per-request ones.
func (t *Tier[V]) Bytes() int64 {
	if t.size == nil {
		return 0
	}
	t.mu.Lock()
	values := make([]V, 0, len(t.items))
	for _, e := range t.items {
		values = append(values, e.value)
	}
	t.mu.Unlock()
	var total int64
	for _, v := range values {
		total += t.size(v)
	}
	return total
}

// costOf prices v for admission.
func (t *Tier[V]) costOf(v V) int64 {
	if t.cost == nil {
		return 1
	}
	return t.cost(v)
}

// removeLocked drops a resident entry. Callers hold t.mu.
func (t *Tier[V]) removeLocked(e *entry[V]) {
	delete(t.items, e.key)
	t.lru.Remove(e.el)
	t.used -= e.cost
}

// lookupLocked returns the stored value for key and marks it most recently
// used. Callers hold t.mu.
func (t *Tier[V]) lookupLocked(key string) (V, bool) {
	e, ok := t.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	t.lru.MoveToFront(e.el)
	return e.value, true
}

// admitLocked stores (or refreshes) key at cost (priced by costOf before
// the lock was taken) at the front of the recency list, evicting
// least-recently-used entries until the value fits the budget. Values
// costing more than the whole budget are rejected rather than flushing the
// tier for one entry. Callers hold t.mu.
func (t *Tier[V]) admitLocked(key string, v V, cost int64) {
	if t.budget <= 0 {
		return
	}
	if cost > t.budget {
		t.counters.Rejected.Inc()
		return
	}
	if e, ok := t.items[key]; ok {
		t.used += cost - e.cost
		e.value, e.cost = v, cost
		t.lru.MoveToFront(e.el)
		t.evictLocked(0)
		return
	}
	t.evictLocked(cost)
	e := &entry[V]{key: key, value: v, cost: cost}
	e.el = t.lru.PushFront(e)
	t.items[key] = e
	t.used += cost
}

// evictLocked evicts least-recently-used entries until cost more fits the
// budget. Callers hold t.mu.
func (t *Tier[V]) evictLocked(cost int64) {
	for t.used+cost > t.budget {
		tail := t.lru.Back()
		if tail == nil {
			return
		}
		t.removeLocked(tail.Value.(*entry[V]))
		t.counters.Evictions.Inc()
	}
}

// Do returns the value for key: from memory on a hit, by joining an
// identical in-flight computation when one exists, by restoring the
// persisted entry when a Store is attached and holds the key, then — when
// fetch is non-nil — from the fleet hook, and otherwise by running compute
// in the caller's goroutine. compute returns (value, cacheable, err); the
// value is stored only when err is nil and cacheable is true (the serving
// layer marks deadline-truncated best-so-far results uncacheable so a
// full-quality solve can replace them). A peer hit is admitted and written
// through exactly like a fresh computation, while a peer miss or error
// falls through to compute, so a dead peer can slow a request but never
// fail it; peer outcomes land in the PeerHits / PeerMisses / PeerErrors
// counters. Followers give up when their ctx is done — the leader's
// computation is unaffected, so nothing leaks. If compute panics, the panic
// propagates to the leader's caller and followers fail with a dedicated
// sentinel error.
//
// The return flags: hit reports the value came from storage (memory, disk,
// or a peer) rather than a computation; shared reports it came from another
// caller's flight.
func (t *Tier[V]) Do(ctx context.Context, key string, fetch FetchFunc[V], compute func() (V, bool, error)) (value V, hit, shared bool, err error) {
	endLookup := obs.StartSpan(ctx, t.spans.lookup)
	t.mu.Lock()
	if v, ok := t.lookupLocked(key); ok {
		t.counters.Hits.Inc()
		t.mu.Unlock()
		endLookup()
		return v, true, false, nil
	}
	t.counters.Misses.Inc()
	if f, ok := t.flights[key]; ok {
		t.counters.Coalesced.Inc()
		t.mu.Unlock()
		endLookup()
		defer obs.StartSpan(ctx, t.spans.wait)()
		select {
		case <-f.done:
			return f.value, false, true, f.err
		case <-ctx.Done():
			return value, false, true, ctx.Err()
		}
	}
	f := &flight[V]{done: make(chan struct{})}
	t.flights[key] = f
	t.mu.Unlock()
	endLookup()

	// Resolve the flight even if compute (or the disk restore) panics, so
	// followers never hang — and never mistake the crash for a cancellation.
	completed := false
	defer func() {
		if !completed {
			t.release(key, f, value, errComputePanic)
		}
	}()
	if v, ok := t.restore(ctx, key); ok {
		completed = true
		t.counters.DiskHits.Inc()
		cost := t.costOf(v)
		t.mu.Lock()
		t.admitLocked(key, v, cost)
		t.mu.Unlock()
		t.release(key, f, v, nil)
		return v, true, false, nil
	}
	if fetch != nil {
		if v, ok := t.peerFetch(ctx, fetch); ok {
			completed = true
			t.Put(ctx, key, v)
			t.release(key, f, v, nil)
			return v, true, false, nil
		}
	}
	v, cacheable, err := compute()
	completed = true
	if err == nil {
		t.counters.Builds.Inc()
		if cacheable {
			t.Put(ctx, key, v)
		}
	}
	t.release(key, f, v, err)
	return v, false, false, err
}

// release publishes a flight's outcome and wakes its followers. Successful
// values are admitted before the flight is released, so a caller arriving
// in between finds them resident.
func (t *Tier[V]) release(key string, f *flight[V], v V, err error) {
	t.mu.Lock()
	delete(t.flights, key)
	t.mu.Unlock()
	f.value, f.err = v, err
	close(f.done)
}

// restore consults the persistent store for key. Any store or decode failure
// is absorbed (counted under DiskErrors, the entry deleted) — a broken disk
// entry must degrade to a recompute, never an outage.
func (t *Tier[V]) restore(ctx context.Context, key string) (value V, ok bool) {
	t.mu.Lock()
	store, codec := t.store, t.codec
	t.mu.Unlock()
	if store == nil {
		return value, false
	}
	defer obs.StartSpan(ctx, t.spans.diskRead)()
	data, found, err := store.Get(key)
	if err != nil {
		t.counters.DiskErrors.Inc()
		return value, false
	}
	if !found {
		return value, false
	}
	v, err := codec.Decode(data)
	if err != nil {
		store.Delete(key)
		t.counters.DiskErrors.Inc()
		return value, false
	}
	return v, true
}

// peerFetch runs the fleet hook and classifies its outcome into the peer
// counters. Only a decoded value counts as a hit; every other outcome sends
// the leader to compute.
func (t *Tier[V]) peerFetch(ctx context.Context, fetch FetchFunc[V]) (V, bool) {
	defer obs.StartSpan(ctx, t.spans.peerRead)()
	v, found, err := fetch(ctx)
	switch {
	case errors.Is(err, ErrNotAsked):
	case err != nil:
		t.counters.PeerErrors.Inc()
	case !found:
		t.counters.PeerMisses.Inc()
	default:
		t.counters.PeerHits.Inc()
		return v, true
	}
	return v, false
}

// Peek returns the value for key from memory or the persistent store
// without touching the hit/miss/disk counters — the read path a node serves
// peer fetches from, which must not distort its own traffic statistics. A
// disk restore is still admitted to memory (the peer asking is evidence the
// key is hot on this node's shard).
func (t *Tier[V]) Peek(ctx context.Context, key string) (V, bool) {
	t.mu.Lock()
	if v, ok := t.lookupLocked(key); ok {
		t.mu.Unlock()
		return v, true
	}
	t.mu.Unlock()
	v, ok := t.restore(ctx, key)
	if ok {
		cost := t.costOf(v)
		t.mu.Lock()
		t.admitLocked(key, v, cost)
		t.mu.Unlock()
	}
	return v, ok
}

// Put admits value under key and writes it through to the
// persistent store — the path every fresh value takes: a computation, a
// peer fetch, or a matrix the serving layer patched incrementally rather
// than built. A value too costly for memory is still
// persisted: disk capacity is not budget-bounded, and restoring it still
// skips its computation. Nothing is stored or persisted when the budget is
// off. The caller must key by the digest of what value actually summarises
// and must not mutate value afterwards.
func (t *Tier[V]) Put(ctx context.Context, key string, value V) {
	cost := t.costOf(value)
	t.mu.Lock()
	t.admitLocked(key, value, cost)
	var store Store
	if t.budget > 0 {
		store = t.store
	}
	codec := t.codec
	t.mu.Unlock()
	if store != nil {
		t.persist(ctx, store, codec, key, value)
	}
}

// Keys returns the keys of every in-memory entry, in no particular order.
func (t *Tier[V]) Keys() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.items))
	for key := range t.items {
		out = append(out, key)
	}
	return out
}

// persist writes one entry through to the store (outside t.mu — encoding
// and I/O must not serialise the tier). Failures are absorbed and counted.
func (t *Tier[V]) persist(ctx context.Context, store Store, codec Codec[V], key string, value V) {
	defer obs.StartSpan(ctx, t.spans.diskWrite)()
	data, err := codec.Encode(value)
	if err == nil {
		err = store.Put(key, data)
	}
	if err != nil {
		t.counters.DiskErrors.Inc()
	} else {
		t.counters.DiskPuts.Inc()
	}
}

// Flush re-persists every in-memory entry to the attached store and
// returns how many it wrote — the snapshot-on-shutdown half of warm
// restarts. Write-through already persisted each entry once, so Flush only
// repairs entries whose earlier write failed; it is cheap and idempotent.
// With no store attached it is a no-op.
func (t *Tier[V]) Flush() int {
	t.mu.Lock()
	store, codec := t.store, t.codec
	if store == nil {
		t.mu.Unlock()
		return 0
	}
	snaps := make(map[string]V, len(t.items))
	for key, e := range t.items {
		snaps[key] = e.value
	}
	t.mu.Unlock()
	for key, v := range snaps {
		t.persist(context.Background(), store, codec, key, v)
	}
	return len(snaps)
}

// Stats returns a snapshot of the counters.
func (t *Tier[V]) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.counters
	return Stats{
		Hits:          c.Hits.Value(),
		Misses:        c.Misses.Value(),
		Coalesced:     c.Coalesced.Value(),
		Builds:        c.Builds.Value(),
		BuildsSkipped: c.BuildsSkipped(),
		Evictions:     c.Evictions.Value(),
		Rejected:      c.Rejected.Value(),
		DiskHits:      c.DiskHits.Value(),
		DiskPuts:      c.DiskPuts.Value(),
		DiskErrors:    c.DiskErrors.Value(),
		PeerHits:      c.PeerHits.Value(),
		PeerMisses:    c.PeerMisses.Value(),
		PeerErrors:    c.PeerErrors.Value(),
		Entries:       len(t.items),
		CostUsed:      t.used,
		CostBudget:    t.budget,
		InFlight:      len(t.flights),
	}
}
