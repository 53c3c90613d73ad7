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
// little-endian uint32 whatever their width in memory, so the bytes do not
// depend on it: encoding is one linear pass, and a uint16 matrix's entry
// is twice its resident size. It implements encoding.BinaryMarshaler and
// never fails.
func (w *Precedence) MarshalBinary() ([]byte, error) {
	buf := make([]byte, precedenceHeaderLen+4*w.Cells())
	copy(buf, precedenceMagic)
	binary.LittleEndian.PutUint64(buf[4:], uint64(w.n))
	binary.LittleEndian.PutUint64(buf[12:], uint64(w.m))
	if w.w16 != nil {
		encodeCells(buf[precedenceHeaderLen:], w.w16)
	} else {
		encodeCells(buf[precedenceHeaderLen:], w.w32)
	}
	return buf, nil
}

func encodeCells[T Cell](dst []byte, cells []T) {
	for i, v := range cells {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
	}
}

// UnmarshalPrecedence decodes a matrix written by MarshalBinary. The header
// dimensions are validated against the actual payload length before any
// allocation, so a truncated or corrupt entry errors out instead of
// allocating from attacker-controlled (or bit-rotted) sizes. The cells must
// then be ones some profile of m rankings produces — a zero diagonal, no
// negative cell, and W[a][b] + W[b][a] = m for every pair — or the entry is
// rejected: the solvers rely on that invariant (Precedence.Margin), so a
// peer or disk entry breaking it would silently change answers. Each wire
// cell is checked against m before it is narrowed to the width m picks
// (uint16 while m ≤ 65535), so no out-of-range value can wrap into a
// valid-looking pair.
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
	w := newSized(int(n), int(m))
	var err error
	if w.w16 != nil {
		err = decodeCells(w.w16, payload, w.m, w.rows)
	} else {
		err = decodeCells(w.w32, payload, w.m, w.rows)
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

// decodeCells narrows the wire cells into dst, each only after checking it
// against m, then checks the pairs (checkPairs).
func decodeCells[T Cell](dst []T, payload []byte, m int, rows []int) error {
	n := len(rows)
	for i := range dst {
		v := binary.LittleEndian.Uint32(payload[4*i:])
		if uint64(v) > uint64(m) {
			return fmt.Errorf("ranking: precedence wire cell W[%d][%d] = %d exceeds m = %d", i/n, i%n, v, m)
		}
		dst[i] = T(v)
	}
	return checkPairs(dst, m, rows)
}

// checkPairs verifies the profile invariant of every cell in one O(n²)
// pass: a zero diagonal, and for each pair a < b two non-negative cells
// summing to m. The same pass fills the row sums, which the wire form does
// not carry.
func checkPairs[T Cell](w []T, m int, rows []int) error {
	n := len(rows)
	for a := 0; a < n; a++ {
		if d := w[a*n+a]; d != 0 {
			return fmt.Errorf("ranking: precedence wire cell W[%d][%d] = %d, want 0", a, a, d)
		}
		for b := a + 1; b < n; b++ {
			x, y := int(w[a*n+b]), int(w[b*n+a])
			if x < 0 || y < 0 || x+y != m {
				return fmt.Errorf("ranking: precedence wire pair W[%d][%d] = %d, W[%d][%d] = %d, want non-negative cells summing to m = %d",
					a, b, x, b, a, y, m)
			}
			rows[a] += x
			rows[b] += y
		}
	}
	return nil
}
