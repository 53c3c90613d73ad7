// Package cache implements manirankd's cache tiers.
//
// Both tiers are instances of one generic type, Tier[V]: a map keyed by
// canonical digests whose admission is bounded by a cost budget, ordered by
// a pluggable replacement Policy — classic LRU or a Compact-CAR-style clock
// (see policy.go) — with optional TTL expiry, hit/miss/eviction counters,
// and single-flight coalescing so any number of concurrent identical
// lookups trigger exactly one computation.
//
// The serving layer runs two of them. The consensus result tier is keyed by
// request digest, charges one unit per entry (so its budget is an entry
// count) and uses the configured policy and TTL. The precedence-matrix tier
// is keyed by the profile sub-digest, since profiles are shared across
// methods, and is bounded by memory cost (n² cells per entry) under LRU —
// ten small profiles and one n=500 matrix are priced honestly against the
// same budget.
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
// with a Zipf-skewed request popularity the hit ratio is governed by the
// cache-size/working-set ratio, which the BENCH_4 load generator measures
// empirically per tier and per policy at several skews — and the same
// analyses predict the hit rate a persistent second-chance tier recovers
// after a cold start, which BENCH_7's restart axis measures.
package cache

import (
	"context"
	"errors"
	"sync"
	"time"

	"manirank/internal/obs"
)

// Stats is a point-in-time snapshot of a tier's counters.
type Stats struct {
	// Policy names the replacement policy in use (PolicyLRU, PolicyClock).
	Policy string `json:"policy"`
	// Hits counts Do calls served from memory.
	Hits uint64 `json:"hits"`
	// Misses counts Do calls that found nothing in memory (computes, joins,
	// disk restores and peer fetches).
	Misses uint64 `json:"misses"`
	// Coalesced counts Do calls that joined another caller's in-flight
	// computation instead of starting their own (a subset of Misses).
	Coalesced uint64 `json:"coalesced"`
	// Builds counts successful computations — the work actually paid.
	Builds uint64 `json:"builds"`
	// BuildsSkipped counts Do calls that returned a value without computing
	// on this node: Hits + Coalesced + DiskHits + PeerHits.
	BuildsSkipped uint64 `json:"builds_skipped"`
	// Evictions counts entries dropped by budget pressure.
	Evictions uint64 `json:"evictions"`
	// Rejected counts values costing more than the whole budget, which are
	// never admitted to memory.
	Rejected uint64 `json:"rejected"`
	// Expirations counts entries dropped because their TTL elapsed — at
	// lookup, during an opportunistic store-time sweep, or by Sweep.
	Expirations uint64 `json:"expirations"`
	// DiskHits counts Do calls served by restoring an entry from the
	// persistent store (a subset of Misses; zero without an attached Store).
	DiskHits uint64 `json:"disk_hits"`
	// DiskPuts counts successful write-throughs to the persistent store.
	DiskPuts uint64 `json:"disk_puts"`
	// DiskErrors counts persistent-store failures the tier absorbed
	// (unreadable, corrupt, or unencodable entries, failed writes).
	DiskErrors uint64 `json:"disk_errors"`
	// PeerHits counts Do calls served by a fleet peer fetch (a subset of
	// Misses; zero without an attached fleet).
	PeerHits uint64 `json:"peer_hits,omitempty"`
	// PeerMisses counts peer fetches answered with an authoritative miss.
	PeerMisses uint64 `json:"peer_misses,omitempty"`
	// PeerErrors counts peer fetches that failed (timeout, dead peer,
	// decode failure) and degraded to local compute.
	PeerErrors uint64 `json:"peer_errors,omitempty"`
	// Entries is the current number of stored values.
	Entries int `json:"entries"`
	// CostUsed is the summed cost of the stored values.
	CostUsed int64 `json:"cost_used"`
	// CostBudget is the configured cost capacity.
	CostBudget int64 `json:"cost_budget"`
	// InFlight is the current number of leader computations running.
	InFlight int `json:"in_flight"`
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
// obs.Registry, so /statz (via Stats) and /metricsz read one source of
// truth.
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
	// Expirations counts entries dropped because their TTL elapsed.
	Expirations *obs.Counter
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
// (self-owned key, no live peer): the tier counts nothing and computes.
var ErrNotAsked = errors.New("cache: no peer asked")

// FetchFunc is the fleet hook DoFetch tries after memory and disk miss and
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
	// TTL bounds each entry's life; <= 0 disables expiry.
	TTL time.Duration
	// Policy orders eviction; nil means LRU. A Policy serves one tier.
	Policy Policy
}

// spanNames are a tier's trace span names, built once from Config.Name.
type spanNames struct{ lookup, wait, diskRead, diskWrite, peerRead string }

// entry is one stored value. expiresAt is absolute (zero = never): entries
// restored from the persistent tier keep the expiry they were first stored
// with, so a restart cannot extend a value's life.
type entry[V any] struct {
	value     V
	cost      int64
	expiresAt time.Time
}

// expired reports whether the entry's TTL elapsed at time now.
func (e *entry[V]) expired(now time.Time) bool {
	return !e.expiresAt.IsZero() && !now.Before(e.expiresAt)
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

// Tier is a thread-safe, cost-budgeted value store with a pluggable
// replacement policy, optional TTL expiry, single-flight coalescing, and an
// optional persistent second-chance tier (AttachStore). Construct with New.
type Tier[V any] struct {
	budget int64
	ttl    time.Duration
	cost   func(V) int64
	size   func(V) int64
	spans  spanNames

	mu        sync.Mutex
	policy    Policy
	used      int64
	items     map[string]*entry[V]
	flights   map[string]*flight[V]
	now       func() time.Time
	lastSweep time.Time

	store Store // nil: memory only
	codec Codec[V]

	counters Counters
}

// New returns an empty tier shaped by cfg.
func New[V any](cfg Config[V]) *Tier[V] {
	policy := cfg.Policy
	if policy == nil {
		policy = newLRUPolicy()
	}
	n := cfg.Name
	return &Tier[V]{
		budget: cfg.Budget,
		ttl:    cfg.TTL,
		cost:   cfg.Cost,
		size:   cfg.Size,
		spans: spanNames{
			lookup:    n + "_lookup",
			wait:      n + "_wait",
			diskRead:  n + "_disk_read",
			diskWrite: n + "_disk_write",
			peerRead:  n + "_peer_read",
		},
		policy:  policy,
		items:   make(map[string]*entry[V]),
		flights: make(map[string]*flight[V]),
		now:     time.Now,
		counters: Counters{
			Hits:        new(obs.Counter),
			Misses:      new(obs.Counter),
			Coalesced:   new(obs.Counter),
			Builds:      new(obs.Counter),
			Evictions:   new(obs.Counter),
			Rejected:    new(obs.Counter),
			Expirations: new(obs.Counter),
			DiskHits:    new(obs.Counter),
			DiskPuts:    new(obs.Counter),
			DiskErrors:  new(obs.Counter),
			PeerHits:    new(obs.Counter),
			PeerMisses:  new(obs.Counter),
			PeerErrors:  new(obs.Counter),
		},
	}
}

// Counters returns the tier's live counters for registry adoption.
func (t *Tier[V]) Counters() Counters { return t.counters }

// SetClock replaces the tier's time source; tests use it to drive TTL
// expiry deterministically.
func (t *Tier[V]) SetClock(now func() time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
}

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

// removeLocked drops a resident entry the policy did not choose to evict.
// Callers hold t.mu.
func (t *Tier[V]) removeLocked(key string, e *entry[V]) {
	delete(t.items, key)
	t.policy.Forget(key)
	t.used -= e.cost
}

// lookupLocked returns the live stored value for key, expiring it first if
// its TTL elapsed. Callers hold t.mu.
func (t *Tier[V]) lookupLocked(key string) (V, bool) {
	e, ok := t.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	// Entries without an expiry skip the clock read.
	if !e.expiresAt.IsZero() && e.expired(t.now()) {
		t.removeLocked(key, e)
		t.counters.Expirations.Inc()
		var zero V
		return zero, false
	}
	t.policy.Hit(key)
	return e.value, true
}

// admitLocked stores (or refreshes) key at cost (priced by costOf before
// the lock was taken) with an absolute expiry (zero = never), asking the
// policy for victims until the value fits the budget. Values costing more
// than the whole budget are rejected rather than flushing the tier for one
// entry. New insertions opportunistically sweep expired entries first, so
// TTL-dead entries release their memory and policy slot without waiting to
// be re-requested or evicted. Callers hold t.mu.
func (t *Tier[V]) admitLocked(key string, v V, cost int64, expiresAt time.Time) {
	if t.budget <= 0 {
		return
	}
	if cost > t.budget {
		t.counters.Rejected.Inc()
		return
	}
	if e, ok := t.items[key]; ok {
		t.used += cost - e.cost
		e.value, e.cost, e.expiresAt = v, cost, expiresAt
		t.policy.Hit(key)
		t.evictLocked(key, 0)
		return
	}
	if t.ttl > 0 {
		if now := t.now(); now.Sub(t.lastSweep) >= t.ttl/2 {
			t.sweepLocked(now)
		}
	}
	t.evictLocked(key, cost)
	t.policy.Add(key)
	t.items[key] = &entry[V]{value: v, cost: cost, expiresAt: expiresAt}
	t.used += cost
}

// evictLocked evicts policy-chosen victims until cost more fits the budget.
// Callers hold t.mu.
func (t *Tier[V]) evictLocked(incoming string, cost int64) {
	for t.used+cost > t.budget {
		victim := t.policy.Evict(incoming)
		if victim == "" {
			return
		}
		t.used -= t.items[victim].cost
		delete(t.items, victim)
		t.counters.Evictions.Inc()
	}
}

// expiryLocked returns the absolute expiry a value stored now carries.
func (t *Tier[V]) expiryLocked() time.Time {
	if t.ttl <= 0 {
		return time.Time{}
	}
	return t.now().Add(t.ttl)
}

// sweepLocked drops every expired entry, counting each under Expirations.
// Callers hold t.mu.
func (t *Tier[V]) sweepLocked(now time.Time) int {
	t.lastSweep = now
	removed := 0
	for key, e := range t.items {
		if e.expired(now) {
			t.removeLocked(key, e)
			t.counters.Expirations.Inc()
			removed++
		}
	}
	return removed
}

// Sweep removes every expired entry now and returns how many it dropped.
// The serving layer's reaper calls it on a timer so idle expired entries
// release memory without waiting for traffic; admissions also sweep
// opportunistically.
func (t *Tier[V]) Sweep() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sweepLocked(t.now())
}

// Do returns the value for key: from memory on a hit, by joining an
// identical in-flight computation when one exists, by restoring the
// persisted entry when a Store is attached and holds the key, and otherwise
// by running compute in the caller's goroutine. compute returns (value,
// cacheable, err); the value is stored only when err is nil and cacheable is
// true (the serving layer marks deadline-truncated best-so-far results
// uncacheable so a full-quality solve can replace them). Followers give up
// when their ctx is done — the leader's computation is unaffected, so
// nothing leaks. If compute panics, the panic propagates to the leader's
// caller and followers fail with a dedicated sentinel error.
//
// The return flags: hit reports the value came from storage (memory, disk,
// or a peer) rather than a computation; shared reports it came from another
// caller's flight.
func (t *Tier[V]) Do(ctx context.Context, key string, compute func() (V, bool, error)) (value V, hit, shared bool, err error) {
	return t.DoFetch(ctx, key, nil, compute)
}

// DoFetch is Do with a fleet hook: after the memory and disk tiers miss,
// the single-flight leader tries fetch (when non-nil) before running
// compute. A peer hit is admitted and written through exactly like a fresh
// computation — followers and future callers see a normal hit — while a
// peer miss or error falls through to compute, so a dead peer can slow a
// request but never fail it. Peer outcomes land in the PeerHits /
// PeerMisses / PeerErrors counters.
func (t *Tier[V]) DoFetch(ctx context.Context, key string, fetch FetchFunc[V], compute func() (V, bool, error)) (value V, hit, shared bool, err error) {
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
	if v, expiry, ok := t.restore(ctx, key); ok {
		completed = true
		t.counters.DiskHits.Inc()
		cost := t.costOf(v)
		t.mu.Lock()
		t.admitLocked(key, v, cost, expiry)
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
// entry must degrade to a recompute, never an outage. The entry's absolute
// expiry is returned so a restart cannot extend a value's life.
func (t *Tier[V]) restore(ctx context.Context, key string) (value V, expiry time.Time, ok bool) {
	t.mu.Lock()
	store, codec := t.store, t.codec
	t.mu.Unlock()
	if store == nil {
		return value, expiry, false
	}
	defer obs.StartSpan(ctx, t.spans.diskRead)()
	data, expiry, found, err := store.Get(key)
	if err != nil {
		t.counters.DiskErrors.Inc()
		return value, time.Time{}, false
	}
	if !found {
		return value, time.Time{}, false
	}
	v, err := codec.Decode(data)
	if err != nil {
		store.Delete(key)
		t.counters.DiskErrors.Inc()
		return value, time.Time{}, false
	}
	return v, expiry, true
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

// Peek returns the live value for key from memory or the persistent store
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
	v, expiry, ok := t.restore(ctx, key)
	if ok {
		cost := t.costOf(v)
		t.mu.Lock()
		t.admitLocked(key, v, cost, expiry)
		t.mu.Unlock()
	}
	return v, ok
}

// Put admits value under key with a fresh TTL and writes it through to the
// persistent store — the path every fresh value takes: a computation, a
// peer fetch, a fleet push (a non-owner computed this key, or a membership
// change re-homed it here), or a matrix the serving layer patched
// incrementally rather than built. A value too costly for memory is still
// persisted: disk capacity is not budget-bounded, and restoring it still
// skips its computation. Nothing is stored or persisted when the budget is
// off. The caller must key by the digest of what value actually summarises
// and must not mutate value afterwards.
func (t *Tier[V]) Put(ctx context.Context, key string, value V) {
	cost := t.costOf(value)
	t.mu.Lock()
	expiry := t.expiryLocked()
	t.admitLocked(key, value, cost, expiry)
	var store Store
	if t.budget > 0 {
		store = t.store
	}
	codec := t.codec
	t.mu.Unlock()
	if store != nil {
		t.persist(ctx, store, codec, key, value, expiry)
	}
}

// Keys returns the keys of every live in-memory entry, in no particular
// order — the enumeration re-owned-key warming walks after a membership
// change.
func (t *Tier[V]) Keys() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	out := make([]string, 0, len(t.items))
	for key, e := range t.items {
		if !e.expired(now) {
			out = append(out, key)
		}
	}
	return out
}

// persist writes one entry through to the store (outside t.mu — encoding
// and I/O must not serialise the tier). Failures are absorbed and counted.
func (t *Tier[V]) persist(ctx context.Context, store Store, codec Codec[V], key string, value V, expiry time.Time) {
	defer obs.StartSpan(ctx, t.spans.diskWrite)()
	data, err := codec.Encode(value)
	if err == nil {
		err = store.Put(key, data, expiry)
	}
	if err != nil {
		t.counters.DiskErrors.Inc()
	} else {
		t.counters.DiskPuts.Inc()
	}
}

// Flush re-persists every live in-memory entry to the attached store and
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
	now := t.now()
	snaps := make(map[string]entry[V], len(t.items))
	for key, e := range t.items {
		if !e.expired(now) {
			snaps[key] = *e
		}
	}
	t.mu.Unlock()
	for key, e := range snaps {
		t.persist(context.Background(), store, codec, key, e.value, e.expiresAt)
	}
	return len(snaps)
}

// Stats returns a snapshot of the counters.
func (t *Tier[V]) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.counters
	return Stats{
		Policy:        t.policy.Name(),
		Hits:          c.Hits.Value(),
		Misses:        c.Misses.Value(),
		Coalesced:     c.Coalesced.Value(),
		Builds:        c.Builds.Value(),
		BuildsSkipped: c.BuildsSkipped(),
		Evictions:     c.Evictions.Value(),
		Rejected:      c.Rejected.Value(),
		Expirations:   c.Expirations.Value(),
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
