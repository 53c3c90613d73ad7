package ranking

import (
	"encoding/binary"
	"fmt"
	"math"
)

// precedenceMagic brands the precedence wire form; a persisted matrix that
// does not start with it is not ours and fails to decode.
const precedenceMagic = "MRW1"

// precedenceHeaderLen is the fixed wire header: magic (4) + n (8) + m (8).
const precedenceHeaderLen = 4 + 8 + 8

// MarshalBinary returns the canonical wire form of w: the "MRW1" magic,
// n and m as little-endian uint64, then the n² cells flat in row-major
// little-endian uint32 — the in-memory layout, so encoding is one linear
// pass and the persisted form is exactly as compact as the live matrix.
// It implements encoding.BinaryMarshaler and never fails.
func (w *Precedence) MarshalBinary() ([]byte, error) {
	buf := make([]byte, precedenceHeaderLen+4*len(w.w))
	copy(buf, precedenceMagic)
	binary.LittleEndian.PutUint64(buf[4:], uint64(w.n))
	binary.LittleEndian.PutUint64(buf[12:], uint64(w.m))
	for i, v := range w.w {
		binary.LittleEndian.PutUint32(buf[precedenceHeaderLen+4*i:], uint32(v))
	}
	return buf, nil
}

// UnmarshalPrecedence decodes a matrix written by MarshalBinary. The header
// dimensions are validated against the actual payload length before any
// allocation, so a truncated or corrupt entry errors out instead of
// allocating from attacker-controlled (or bit-rotted) sizes. The cells must
// then be ones some profile of m rankings produces — a zero diagonal, no
// negative cell, and W[a][b] + W[b][a] = m for every pair — or the entry is
// rejected: the solvers rely on that invariant (Precedence.Margin), so a
// peer or disk entry breaking it would silently change answers.
func UnmarshalPrecedence(data []byte) (*Precedence, error) {
	if len(data) < precedenceHeaderLen || string(data[:4]) != precedenceMagic {
		return nil, fmt.Errorf("ranking: not a precedence wire entry")
	}
	n := binary.LittleEndian.Uint64(data[4:])
	m := binary.LittleEndian.Uint64(data[12:])
	if n > math.MaxInt32 || m > math.MaxInt32 {
		return nil, fmt.Errorf("ranking: precedence wire dimensions n=%d m=%d out of range", n, m)
	}
	payload := data[precedenceHeaderLen:]
	if uint64(len(payload)) != 4*n*n {
		return nil, fmt.Errorf("ranking: precedence wire payload %d bytes, want %d for n=%d",
			len(payload), 4*n*n, n)
	}
	w := &Precedence{n: int(n), m: int(m), w: make([]int32, n*n), rows: make([]int, n)}
	for i := range w.w {
		w.w[i] = int32(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	if err := w.checkPairs(); err != nil {
		return nil, err
	}
	return w, nil
}

// checkPairs verifies the profile invariant of every cell in one O(n²)
// pass: a zero diagonal, and for each pair a < b two non-negative cells
// summing to m. The same pass fills the row sums, which the wire form does
// not carry.
func (w *Precedence) checkPairs() error {
	for a := 0; a < w.n; a++ {
		if d := w.At(a, a); d != 0 {
			return fmt.Errorf("ranking: precedence wire cell W[%d][%d] = %d, want 0", a, a, d)
		}
		for b := a + 1; b < w.n; b++ {
			x, y := w.At(a, b), w.At(b, a)
			if x < 0 || y < 0 || x+y != w.m {
				return fmt.Errorf("ranking: precedence wire pair W[%d][%d] = %d, W[%d][%d] = %d, want non-negative cells summing to m = %d",
					a, b, x, b, a, y, w.m)
			}
			w.rows[a] += x
			w.rows[b] += y
		}
	}
	return nil
}
