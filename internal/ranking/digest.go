package ranking

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
)

// Digest returns the canonical SHA-256 content digest of p under the given
// namespace: the key a profile-addressed cache (the serving layer's
// precedence-matrix tier, manirank.EngineCache's persistent store) files the
// profile's derived artefacts under. The serialisation is fixed — the
// length-prefixed namespace, the ranking count, then each ranking as a
// length-prefixed little-endian int64 row — so two structurally equal
// profiles always collide across processes and runs, and any namespace
// change (a digest-schema or solver-behaviour version bump) makes every
// previously issued key unreachable without touching the stored entries.
//
// p need not be valid; Digest hashes exactly what it is given.
func (p Profile) Digest(namespace string) string {
	h := sha256.New()
	HashString(h, namespace)
	HashInt(h, int64(len(p)))
	for _, r := range p {
		HashInts(h, r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// HashString writes s length-prefixed, so no concatenation of adjacent
// fields can collide with a different split of the same bytes.
//
// HashString, HashInt and HashInts are the one content-address encoding:
// Profile.Digest and the serving layer's request and session digests
// (internal/service) serialise through them, so every key in the repo is
// built from the same fixed-width little-endian fields.
func HashString(h hash.Hash, s string) {
	HashInt(h, int64(len(s)))
	h.Write([]byte(s))
}

// HashInt writes v as 8 little-endian bytes.
func HashInt(h hash.Hash, v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	h.Write(buf[:])
}

// HashInts writes vs length-prefixed, each element as HashInt would.
func HashInts(h hash.Hash, vs []int) {
	HashInt(h, int64(len(vs)))
	buf := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	h.Write(buf)
}
