package cache

// Store is a persistent second-chance tier under the in-memory caches: a
// content-addressed byte store keyed by the same canonical digests, consulted
// on memory misses (lazy warm-on-miss restore) and written through on every
// admission, so a restarted process serves its previous working set warm
// instead of re-paying the solves and O(n²·m) matrix builds (the
// Che-approximation analyses in the package comment predict exactly this
// recovered hit rate).
//
// Implementations must be safe for concurrent use. Every method treats a
// missing key as a miss, not an error; Get must treat corrupt or truncated
// entries the same way (self-healing by deletion is encouraged), because a
// crash mid-write or a partial disk must never take the serving layer down.
type Store interface {
	// Get returns the stored bytes of key. ok is false on a miss — including
	// corrupt or truncated entries, which Get is expected to delete.
	Get(key string) (value []byte, ok bool, err error)
	// Put durably stores value under key. The write must be atomic: a
	// concurrent or crashed reader sees either the previous entry or the
	// complete new one, never a torn write.
	Put(key string, value []byte) error
	// Delete removes key; deleting an absent key is not an error.
	Delete(key string) error
	// Close releases the store's resources. The in-memory tiers flush
	// through Put before their owner calls Close.
	Close() error
}

// Codec serialises a tier's values for a Store — the serving layer uses
// JSON for consensus results and the flat uint32 wire form (MRW1) for
// precedence matrices.
type Codec[V any] struct {
	// Encode returns the byte form of a value.
	Encode func(V) ([]byte, error)
	// Decode reconstructs a value from its byte form. A decode error marks
	// the entry corrupt: the tier deletes it and treats the lookup as a miss.
	Decode func([]byte) (V, error)
}
