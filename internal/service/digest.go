package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
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
// as the profile sub-digest, hashed once). DeadlineMillis is deliberately
// excluded: the deadline changes how long we are willing to search, not
// what the request asks for, and truncated (partial) results are never
// cached.
//
// Both digests are stable across processes and runs; two structurally equal
// requests always collide and any semantic difference separates them.
func Digests(req *AggregateRequest) (full, profile string) {
	// The profile sub-digest is ranking.Profile.Digest — the shared
	// content-address primitive — under this schema's namespace, so the
	// serving tier and manirank.EngineCache hash a profile identically.
	p := make(ranking.Profile, len(req.Profile))
	for i, row := range req.Profile {
		p[i] = row
	}
	profile = p.Digest(digestVersion + "/profile")

	h := sha256.New()
	writeString(h, digestVersion)
	// Method names are canonicalised exactly the way manirank.ParseMethod
	// accepts them (trimmed, lowercased): a request spelling the method
	// " Kemeny " must share its cache entry — and its coalesced flight —
	// with "kemeny". For clean inputs the bytes are unchanged, so existing
	// digests are stable.
	writeString(h, strings.ToLower(strings.TrimSpace(req.Method)))

	writeFloat(h, req.Delta)
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
	writeInt(h, int64(len(keys)))
	for _, k := range keys {
		writeString(h, k.name)
		writeFloat(h, k.val)
	}

	o := req.Options
	writeInt(h, o.Seed)
	writeInt(h, int64(o.Perturbations))
	writeInt(h, int64(o.Strength))
	writeInt(h, int64(o.ExactThreshold))
	writeInt(h, o.MaxNodes)

	writeInt(h, int64(len(req.Attributes)))
	for _, a := range req.Attributes {
		writeString(h, a.Name)
		writeInt(h, int64(len(a.Values)))
		for _, v := range a.Values {
			writeString(h, v)
		}
		writeInts(h, a.Of)
	}

	writeString(h, profile)
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
	writeString(h, digestVersion+"/session")
	writeString(h, base)
	writeInts(h, warm)
	return hex.EncodeToString(h.Sum(nil))
}

// writeString writes a length-prefixed string, so no concatenation of
// adjacent fields can collide with a different split of the same bytes.
func writeString(h hash.Hash, s string) {
	writeInt(h, int64(len(s)))
	h.Write([]byte(s))
}

func writeInt(h hash.Hash, v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	h.Write(buf[:])
}

func writeFloat(h hash.Hash, v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	h.Write(buf[:])
}

func writeInts(h hash.Hash, vs []int) {
	writeInt(h, int64(len(vs)))
	buf := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	h.Write(buf)
}
