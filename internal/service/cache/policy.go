package cache

import (
	"container/list"
	"fmt"
	"strings"
)

// Policy names accepted by NewPolicy and the -cache-policy flag.
const (
	// PolicyLRU is classic least-recently-used eviction: every hit moves the
	// entry to the head of a recency list and the tail is evicted.
	PolicyLRU = "lru"
	// PolicyClock is the Compact-CAR-style clock policy (Ooka et al.,
	// arXiv:1612.02603): CLOCK hands over a recency and a frequency ring with
	// reference bits, ghost directories, and an adaptive split between the
	// rings. Hits only set a bit — no list surgery — and one-shot scans
	// cannot flush the frequency ring, which carries the Zipf tail better
	// than pure LRU at low skew.
	PolicyClock = "clock"
)

// Policies lists the replacement policy names, in documentation order.
func Policies() []string { return []string{PolicyLRU, PolicyClock} }

// Policy is a cache replacement policy over string keys. It tracks residency
// order only — the Tier owns the stored values and their costs — and is
// driven by four events: Hit (key found resident), Evict (the Tier needs
// room for an incoming key and asks for a victim of the policy's choosing),
// Add (key newly inserted), and Forget (key removed for a reason the policy
// did not choose, e.g. TTL expiry). The Tier calls Evict until the incoming
// value fits its budget, then Add; a unit-cost tier therefore evicts exactly
// when an insertion would overflow its capacity. Implementations are not
// thread-safe; the Tier serialises access under its own lock.
type Policy interface {
	// Name returns the policy's registry name (PolicyLRU, PolicyClock).
	Name() string
	// Hit records an access to a resident key.
	Hit(key string)
	// Evict picks a resident victim to make room for incoming, removes it
	// from the resident set, and returns it ("" when nothing is resident).
	Evict(incoming string) (victim string)
	// Add admits a key that was not resident.
	Add(key string)
	// Forget removes a resident key without counting it as a policy-chosen
	// eviction (the Tier calls it on TTL expiry).
	Forget(key string)
	// Len returns the number of resident keys.
	Len() int
}

// NewPolicy returns the named replacement policy for a tier of the given
// capacity in entries (the clock policy sizes its ghost directories and
// adaptive split by it). The empty name resolves to PolicyLRU.
func NewPolicy(name string, capacity int) (Policy, error) {
	switch strings.ToLower(name) {
	case "", PolicyLRU:
		return newLRUPolicy(), nil
	case PolicyClock:
		return newClockPolicy(capacity), nil
	}
	return nil, fmt.Errorf("cache: unknown policy %q (want one of %s)", name, strings.Join(Policies(), ", "))
}

// lruPolicy is least-recently-used eviction: a recency list (front = most
// recent) plus a key index.
type lruPolicy struct {
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

func newLRUPolicy() *lruPolicy {
	return &lruPolicy{ll: list.New(), items: make(map[string]*list.Element)}
}

func (p *lruPolicy) Name() string { return PolicyLRU }
func (p *lruPolicy) Len() int     { return p.ll.Len() }

func (p *lruPolicy) Hit(key string) {
	if el, ok := p.items[key]; ok {
		p.ll.MoveToFront(el)
	}
}

func (p *lruPolicy) Evict(string) string {
	tail := p.ll.Back()
	if tail == nil {
		return ""
	}
	victim := tail.Value.(string)
	p.ll.Remove(tail)
	delete(p.items, victim)
	return victim
}

func (p *lruPolicy) Add(key string) {
	if el, ok := p.items[key]; ok {
		p.ll.MoveToFront(el)
		return
	}
	p.items[key] = p.ll.PushFront(key)
}

func (p *lruPolicy) Forget(key string) {
	if el, ok := p.items[key]; ok {
		p.ll.Remove(el)
		delete(p.items, key)
	}
}

// clockPolicy is the CAR clock scheme Compact-CAR compacts for line-speed
// routers: two CLOCK rings — t1 holds keys seen once (recency), t2 keys
// proven reused (frequency) — with one reference bit per entry, two ghost
// directories b1/b2 remembering recently evicted keys, and an adaptive
// target size p for t1 steered by which ghost list re-hits. A hit sets a
// bit; all reordering is deferred to eviction time, when the clock hands
// sweep: a swept t1 entry with its bit set is promoted into t2 (it was
// reused while resident), a swept t2 entry with its bit set gets another
// lap, and the first clear-bit entry under a hand is the victim.
type clockPolicy struct {
	capacity int
	p        int        // adaptive target for len(t1)
	t1, t2   *list.List // resident clock rings; front = hand position
	b1, b2   *list.List // ghost directories; front = most recently evicted
	resident map[string]*list.Element
	ghosts   map[string]*list.Element
}

// clockEntry is one resident or ghost key; home points at the list currently
// holding it (t1/t2 for residents, b1/b2 for ghosts).
type clockEntry struct {
	key  string
	ref  bool
	home *list.List
}

func newClockPolicy(capacity int) *clockPolicy {
	return &clockPolicy{
		capacity: capacity,
		t1:       list.New(),
		t2:       list.New(),
		b1:       list.New(),
		b2:       list.New(),
		resident: make(map[string]*list.Element),
		ghosts:   make(map[string]*list.Element),
	}
}

func (c *clockPolicy) Name() string { return PolicyClock }
func (c *clockPolicy) Len() int     { return c.t1.Len() + c.t2.Len() }

func (c *clockPolicy) Hit(key string) {
	if el, ok := c.resident[key]; ok {
		el.Value.(*clockEntry).ref = true
	}
}

// Evict sweeps out a victim and, when the incoming key is brand new (not a
// ghost), frees it a directory slot: keep |t1|+|b1| <= c and the whole
// directory <= 2c, dropping the stalest ghost history.
func (c *clockPolicy) Evict(incoming string) string {
	if c.Len() == 0 {
		return ""
	}
	victim := c.sweep()
	if _, inGhost := c.ghosts[incoming]; !inGhost {
		if c.t1.Len()+c.b1.Len() >= c.capacity && c.b1.Len() > 0 {
			c.dropGhost(c.b1)
		} else if c.Len()+c.b1.Len()+c.b2.Len() >= 2*c.capacity && c.b2.Len() > 0 {
			c.dropGhost(c.b2)
		}
	}
	return victim
}

func (c *clockPolicy) Add(key string) {
	if _, ok := c.resident[key]; ok {
		c.Hit(key)
		return
	}
	if gel, ok := c.ghosts[key]; ok {
		// A ghost hit means the policy evicted this key too eagerly; grow the
		// ring it came out of (b1 re-hit -> recency was starved, raise p; b2
		// re-hit -> frequency was starved, lower p) and admit straight into
		// the frequency ring — the key has proven reuse.
		ge := gel.Value.(*clockEntry)
		if ge.home == c.b1 {
			c.p = min(c.p+max(1, c.b2.Len()/c.b1.Len()), c.capacity)
		} else {
			c.p = max(c.p-max(1, c.b1.Len()/c.b2.Len()), 0)
		}
		ge.home.Remove(gel)
		delete(c.ghosts, key)
		c.admit(c.t2, key)
	} else {
		c.admit(c.t1, key)
	}
}

func (c *clockPolicy) Forget(key string) {
	if el, ok := c.resident[key]; ok {
		el.Value.(*clockEntry).home.Remove(el)
		delete(c.resident, key)
	}
}

// admit inserts key behind the given ring's hand with a clear reference bit.
func (c *clockPolicy) admit(ring *list.List, key string) {
	c.resident[key] = ring.PushBack(&clockEntry{key: key, home: ring})
}

// sweep advances the clock hands until a clear-bit victim falls out,
// promoting reused t1 entries to t2 and granting reused t2 entries another
// lap. It terminates because every pass either evicts or clears a bit.
func (c *clockPolicy) sweep() (victim string) {
	for {
		if c.t1.Len() >= max(1, c.p) {
			el := c.t1.Front()
			e := el.Value.(*clockEntry)
			c.t1.Remove(el)
			if !e.ref {
				delete(c.resident, e.key)
				c.remember(c.b1, e)
				return e.key
			}
			e.ref = false
			e.home = c.t2
			c.resident[e.key] = c.t2.PushBack(e)
			continue
		}
		el := c.t2.Front()
		e := el.Value.(*clockEntry)
		c.t2.Remove(el)
		if !e.ref {
			delete(c.resident, e.key)
			c.remember(c.b2, e)
			return e.key
		}
		e.ref = false
		c.resident[e.key] = c.t2.PushBack(e)
	}
}

// remember parks an evicted entry at the fresh end of a ghost directory.
func (c *clockPolicy) remember(ghost *list.List, e *clockEntry) {
	e.ref = false
	e.home = ghost
	c.ghosts[e.key] = ghost.PushFront(e)
}

// dropGhost discards the stalest entry of a ghost directory.
func (c *clockPolicy) dropGhost(ghost *list.List) {
	tail := ghost.Back()
	ghost.Remove(tail)
	delete(c.ghosts, tail.Value.(*clockEntry).key)
}
