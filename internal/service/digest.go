package service

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
	"strings"

	"manirank/internal/ranking"
)

// digestVersion namespaces both digests; bump it whenever a canonical
// serialisation below changes, so stale cached results (or matrices) can
// never be served across an upgrade. v2 split the profile sub-digest out of
// the request digest for the precedence-matrix tier.
const digestVersion = "manirankd/v2"

// DefaultEngineVersion is the engine-version component the persistent cache
// namespace carries when the operator doesn't override it
// (-cache-engine-version). Bump it — or pass a new value at deploy time —
// whenever the solvers' deterministic behaviour changes without a digest
// serialisation change, so persisted entries from the old behaviour become
// unreachable.
const DefaultEngineVersion = "1"

// CacheNamespace returns the versioned namespace the persistent cache tier
// files entries under: the digest schema version joined with the engine
// behaviour version. Both components address the on-disk key path, so
// bumping either invalidates every persisted entry by making its path
// unreachable — no deletion pass required (the store prunes stale version
// trees opportunistically on open). An empty engineVersion means
// DefaultEngineVersion.
func CacheNamespace(engineVersion string) string {
	if engineVersion == "" {
		engineVersion = DefaultEngineVersion
	}
	// The store splits namespaces into path segments on "/" and prunes
	// sibling trees of the FIRST segment only, so the whole version pair must
	// collapse into that one segment ("manirankd_v2@engine-1").
	return strings.ReplaceAll(digestVersion, "/", "_") + "@engine-" + engineVersion
}

// profileDigest is the profile sub-digest: ranking.Profile.Digest — the
// shared content-address primitive — under this schema's namespace, so the
// serving tier and manirank.EngineCache hash a profile identically. It keys
// the matrix tier, and a peer build request is checked against it.
func profileDigest(p ranking.Profile) string { return p.Digest(digestVersion + "/profile") }

// Digests returns the two canonical cache keys of an aggregate request.
//
// The profile sub-digest covers exactly the base rankings — the only input
// the precedence matrix W depends on — so it keys the serving layer's
// matrix tier: any method queried over an already-seen profile shares the
// stored W regardless of solver options, thresholds, or attributes.
//
// The full digest is a SHA-256 over a fixed-order serialisation of every
// request field that influences the result — method, solver options,
// fairness thresholds (sorted by name, so Go's randomised map iteration
// order can never perturb the key), attributes, and the profile (folded in
// as the profile sub-digest, hashed once). Every field is written with the
// ranking package's Hash* encoding (length-prefixed strings and slices,
// 8-byte little-endian integers, floats as their IEEE-754 bits), the same
// one the profile sub-digest uses. DeadlineMillis is deliberately
// excluded: the deadline changes how long we are willing to search, not
// what the request asks for, and truncated (partial) results are never
// cached.
//
// Both digests are stable across processes and runs; two structurally equal
// requests always collide and any semantic difference separates them.
func Digests(req *AggregateRequest) (full, profile string) {
	profile = profileDigest(req.Profile.profile())

	h := sha256.New()
	ranking.HashString(h, digestVersion)
	// Method names are canonicalised exactly the way manirank.ParseMethod
	// accepts them (trimmed, lowercased): a request spelling the method
	// " Kemeny " must share its cache entry — and its coalesced flight —
	// with "kemeny". For clean inputs the bytes are unchanged, so existing
	// digests are stable.
	ranking.HashString(h, strings.ToLower(strings.TrimSpace(req.Method)))

	ranking.HashInt(h, int64(math.Float64bits(req.Delta)))
	// The intersection key is matched case-insensitively at build time, so
	// canonicalise the spelling BEFORE sorting — "Intersection" and
	// "intersection" must serialise to the same position and bytes.
	// (buildProblem rejects requests carrying both spellings at once.)
	type kv struct {
		name string
		val  float64
	}
	keys := make([]kv, 0, len(req.Thresholds))
	for k, v := range req.Thresholds {
		name := k
		if interThresholdKey(k) {
			name = "intersection"
		}
		keys = append(keys, kv{name, v})
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].name < keys[j].name })
	ranking.HashInt(h, int64(len(keys)))
	for _, k := range keys {
		ranking.HashString(h, k.name)
		ranking.HashInt(h, int64(math.Float64bits(k.val)))
	}

	o := req.Options
	ranking.HashInt(h, o.Seed)
	ranking.HashInt(h, int64(o.Perturbations))
	ranking.HashInt(h, int64(o.Strength))
	ranking.HashInt(h, int64(o.ExactThreshold))
	ranking.HashInt(h, o.MaxNodes)

	ranking.HashInt(h, int64(len(req.Attributes)))
	for _, a := range req.Attributes {
		ranking.HashString(h, a.Name)
		ranking.HashInt(h, int64(len(a.Values)))
		for _, v := range a.Values {
			ranking.HashString(h, v)
		}
		ranking.HashInts(h, a.Of)
	}

	ranking.HashString(h, profile)
	return hex.EncodeToString(h.Sum(nil)), profile
}

// SessionDigest returns the result-cache key of one session-scoped solve:
// base, the full digest (Digests) of the session's current state as an
// AggregateRequest, folded with the warm-start seed ranking. Callers pass
// the digest buildProblem already computed, so a session solve hashes its
// profile once. The warm seed participates because warm-started heuristic
// results are deterministic per (input, warm, options) but not identical to
// cold solves — a session result cached under the plain request digest
// would poison the stateless tier (and vice versa), while folding the seed
// in gives every (state, warm) pair its own entry. An empty warm seed
// hashes as a zero-length ranking, which still differs from the stateless
// digest via the namespace suffix. The matrix key is the plain
// post-mutation profile sub-digest: the matrix depends only on the profile,
// and an incrementally patched W is bitwise identical to a fresh build, so
// the matrix tier shares entries between the session and stateless paths.
func SessionDigest(base string, warm ranking.Ranking) string {
	h := sha256.New()
	ranking.HashString(h, digestVersion+"/session")
	ranking.HashString(h, base)
	ranking.HashInts(h, warm)
	return hex.EncodeToString(h.Sum(nil))
}
