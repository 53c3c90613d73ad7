package manirank

import (
	"context"

	"manirank/internal/ranking"
	"manirank/internal/service/cache"
)

// engineCacheVersion namespaces EngineCache's profile digests. Bump it if
// the digest serialisation or the precedence construction's observable
// output ever changes.
const engineCacheVersion = "manirank/enginecache/v1"

// EngineCacheStats is a point-in-time snapshot of an EngineCache's counters.
type EngineCacheStats struct {
	// Hits counts Engine calls served a matrix from memory.
	Hits uint64
	// Misses counts Engine calls that found no matrix in memory.
	Misses uint64
	// Coalesced counts Engine calls that joined a concurrent caller's build
	// of the same profile (a subset of Misses).
	Coalesced uint64
	// Builds counts O(n²·m) precedence constructions actually paid.
	Builds uint64
	// BuildsSkipped counts Engine calls that avoided a construction:
	// Hits + Coalesced + DiskHits + PeerHits (an EngineCache has no fleet, so
	// its PeerHits are always zero).
	BuildsSkipped uint64
	// Evictions counts matrices dropped under cell-budget pressure.
	Evictions uint64
	// Rejected counts matrices too large for the whole budget.
	Rejected uint64
	// DiskHits counts matrices restored from the attached directory (a
	// subset of Misses; zero without AttachDir).
	DiskHits uint64
	// DiskPuts counts successful writes to the attached directory.
	DiskPuts uint64
	// DiskErrors counts persistent-store failures absorbed as misses.
	DiskErrors uint64
	// Entries is the number of matrices currently held in memory.
	Entries int
	// CellsUsed is the summed n² footprint of the held matrices.
	CellsUsed int64
	// CellsBudget is the configured cell capacity.
	CellsBudget int64
}

// EngineCache is the library-level form of manirankd's precedence-matrix
// tier: a profile-digest-keyed cache of precedence matrices shared by the
// Engines it constructs. A batch pipeline that evaluates several methods, or
// re-sees the same profiles across runs, pays each profile's O(n²·m) matrix
// construction once — concurrent first sights coalesce onto a single build —
// and with AttachDir the matrices persist across process restarts.
//
// An EngineCache is safe for concurrent use. The Engines it returns share
// cached matrices; streaming mutations (Engine.AddRanking and friends)
// copy-on-write, so a mutated Engine forks its matrix and never corrupts
// the cache-resident one. Put re-admits a mutated Engine's state under its
// current profile digest, making the incremental matrix reusable.
type EngineCache struct {
	mc    *cache.Tier[*Precedence]
	store *cache.FileStore
}

// NewEngineCache returns an engine cache budgeted to hold at most cells
// matrix cells in memory — a profile over n candidates costs n² (2n² bytes
// as uint16 cells while it has at most 65535 rankings, 4n² beyond). cells
// <= 0 keeps no matrices in memory but still coalesces concurrent builds;
// with AttachDir it still cannot persist (there is nothing admitted to
// write through), so give persistent caches a budget.
func NewEngineCache(cells int64) *EngineCache {
	return &EngineCache{mc: cache.New(cache.Config[*Precedence]{Name: "matrix", Budget: cells, Cost: (*Precedence).Cells})}
}

// AttachDir roots a persistent tier at dir: every built matrix is written
// through (atomic temp-file + rename, CRC-framed), and a memory miss
// restores from disk instead of rebuilding. Entries are filed under a
// namespace versioned by engineVersion ("" means "1"): bump it when solver
// or construction behaviour changes and every previously persisted matrix
// becomes unreachable; stale version trees under dir are pruned on attach,
// so dir must be dedicated to this cache. Attach before handing the cache
// to concurrent callers.
func (c *EngineCache) AttachDir(dir, engineVersion string) error {
	if engineVersion == "" {
		engineVersion = "1"
	}
	st, err := cache.OpenFileStore(dir, "enginecache_v1@engine-"+engineVersion+"/matrices")
	if err != nil {
		return err
	}
	c.store = st
	c.mc.AttachStore(st, cache.Codec[*Precedence]{
		Encode: (*Precedence).MarshalBinary,
		Decode: ranking.UnmarshalPrecedence,
	})
	return nil
}

// Engine returns an Engine over p whose precedence matrix comes through the
// cache: a content-identical profile seen before (this process or, with
// AttachDir, a previous one) reuses the stored matrix and skips the
// O(n²·m) construction entirely. ctx bounds only the wait on a concurrent
// caller's in-flight build of the same profile; a build this caller leads
// runs to completion. Options apply as in NewEngine — note
// WithPrecedenceWorkers shapes only an actual build, never a cached reuse,
// and the matrix is bitwise identical either way.
func (c *EngineCache) Engine(ctx context.Context, p Profile, opts ...EngineOption) (*Engine, error) {
	key := p.Digest(engineCacheVersion)
	// The profile rides along (unlike NewEngineW), so profile-consuming
	// methods stay solvable on a cache hit.
	return newEngine(p, opts, func(workers int) (*Precedence, error) {
		w, _, _, err := c.mc.Do(ctx, key, nil, func() (*Precedence, bool, error) {
			w, err := ranking.NewPrecedenceWorkers(p, workers)
			return w, true, err
		})
		return w, err
	})
}

// Put admits e's current precedence matrix under the digest of e's CURRENT
// profile — the post-mutation state, never the profile the engine was
// constructed over. That keying is what makes streaming mutations safe to
// persist: an engine that drifted from its construction profile files its
// matrix under the drifted profile's digest, so Engine() over the original
// profile still restores the original matrix, while Engine() over the
// mutated profile skips the rebuild (this process or, with AttachDir, the
// next one). The admitted matrix is a snapshot; further mutations of e do
// not affect it. Engines without a profile (NewEngineW) are ignored.
func (c *EngineCache) Put(ctx context.Context, e *Engine) {
	// One consistent (profile, matrix) pair: a mutation landing between two
	// separate snapshots would file the matrix under the wrong digest.
	e.mu.RLock()
	if e.p == nil {
		e.mu.RUnlock()
		return
	}
	key := e.p.Digest(engineCacheVersion)
	w := e.w.Clone()
	e.mu.RUnlock()
	c.mc.Put(ctx, key, w)
}

// Flush re-persists every matrix held in memory to the attached directory
// and returns how many it wrote; without AttachDir it is a no-op. Call it
// before exiting to guarantee the next process starts warm even if a
// write-through failed.
func (c *EngineCache) Flush() int { return c.mc.Flush() }

// Close flushes (when a directory is attached), detaches and releases the
// persistent tier. The cache remains usable in memory-only mode afterwards:
// later builds and Puts touch nothing on disk.
func (c *EngineCache) Close() error {
	if c.store == nil {
		return nil
	}
	c.mc.Flush()
	c.mc.AttachStore(nil, cache.Codec[*Precedence]{})
	st := c.store
	c.store = nil
	return st.Close()
}

// Stats returns a snapshot of the cache's counters.
func (c *EngineCache) Stats() EngineCacheStats {
	s := c.mc.Stats()
	return EngineCacheStats{
		Hits:          s.Hits,
		Misses:        s.Misses,
		Coalesced:     s.Coalesced,
		Builds:        s.Builds,
		BuildsSkipped: s.BuildsSkipped,
		Evictions:     s.Evictions,
		Rejected:      s.Rejected,
		DiskHits:      s.DiskHits,
		DiskPuts:      s.DiskPuts,
		DiskErrors:    s.DiskErrors,
		Entries:       s.Entries,
		CellsUsed:     s.CostUsed,
		CellsBudget:   s.CostBudget,
	}
}
