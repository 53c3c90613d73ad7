package ranking

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func testPrecedence(t *testing.T) (*Precedence, Profile) {
	t.Helper()
	p := Profile{{0, 1, 2, 3}, {1, 0, 3, 2}, {3, 2, 1, 0}}
	w, err := NewPrecedence(p)
	if err != nil {
		t.Fatal(err)
	}
	return w, p
}

func TestPrecedenceWireRoundTrip(t *testing.T) {
	w, _ := testPrecedence(t)
	data, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalPrecedence(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != w.N() || got.Rankings() != w.Rankings() {
		t.Fatalf("round trip: n=%d m=%d, want n=%d m=%d", got.N(), got.Rankings(), w.N(), w.Rankings())
	}
	for a := 0; a < w.N(); a++ {
		for b := 0; b < w.N(); b++ {
			if got.At(a, b) != w.At(a, b) {
				t.Fatalf("W[%d][%d] = %d, want %d", a, b, got.At(a, b), w.At(a, b))
			}
		}
	}
	// The wire form is canonical: re-encoding the decoded matrix is
	// byte-identical.
	data2, _ := got.MarshalBinary()
	if !bytes.Equal(data, data2) {
		t.Fatal("re-encoded wire form differs")
	}
}

func TestUnmarshalPrecedenceRejectsCorruptForms(t *testing.T) {
	w, _ := testPrecedence(t)
	data, _ := w.MarshalBinary()
	cases := map[string][]byte{
		"empty":             {},
		"short header":      data[:precedenceHeaderLen-1],
		"bad magic":         append([]byte("XXXX"), data[4:]...),
		"truncated payload": data[:len(data)-4],
		"extra payload":     append(append([]byte{}, data...), 0, 0, 0, 0),
	}
	// Well-framed payloads that no profile can produce.
	cell := func(a, b int, v uint32) []byte {
		c := append([]byte{}, data...)
		binary.LittleEndian.PutUint32(c[precedenceHeaderLen+4*(a*w.N()+b):], v)
		return c
	}
	cases["nonzero diagonal"] = cell(2, 2, 1)
	cases["negative cell"] = cell(0, 1, 1<<31)
	cases["pair sum off by one"] = cell(1, 3, uint32(w.At(1, 3)+1))
	mBumped := append([]byte{}, data...)
	binary.LittleEndian.PutUint64(mBumped[12:], uint64(w.Rankings()+1))
	cases["m disagrees with cells"] = mBumped
	// A header announcing a huge n over a tiny payload must be rejected by
	// the length check before any allocation.
	huge := append([]byte{}, data[:precedenceHeaderLen]...)
	for i := 4; i < 12; i++ {
		huge[i] = 0xFF
	}
	cases["huge dimensions"] = huge
	for name, c := range cases {
		if _, err := UnmarshalPrecedence(c); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestProfileDigest(t *testing.T) {
	_, p := testPrecedence(t)
	d1 := p.Digest("ns/v1")
	if len(d1) != 64 {
		t.Fatalf("digest %q is not a hex SHA-256", d1)
	}
	// Content-equal profiles collide; any semantic difference separates.
	clone := Profile{{0, 1, 2, 3}, {1, 0, 3, 2}, {3, 2, 1, 0}}
	if clone.Digest("ns/v1") != d1 {
		t.Fatal("structurally equal profiles digest differently")
	}
	perturbed := Profile{{0, 1, 2, 3}, {1, 0, 3, 2}, {3, 2, 0, 1}}
	if perturbed.Digest("ns/v1") == d1 {
		t.Fatal("different profiles collided")
	}
	if p.Digest("ns/v2") == d1 {
		t.Fatal("namespace bump did not separate digests")
	}
	// Row-boundary ambiguity: [[0,1],[2]] vs [[0],[1,2]] must differ (the
	// length prefixes prevent concatenation collisions).
	a := Profile{{0, 1}, {2}}
	b := Profile{{0}, {1, 2}}
	if a.Digest("ns") == b.Digest("ns") {
		t.Fatal("row-boundary collision")
	}
}

// wireEntry frames an n×n matrix of wire cells under header count m.
func wireEntry(n, m int, cells ...uint32) []byte {
	buf := make([]byte, precedenceHeaderLen+4*len(cells))
	copy(buf, precedenceMagic)
	binary.LittleEndian.PutUint64(buf[4:], uint64(n))
	binary.LittleEndian.PutUint64(buf[12:], uint64(m))
	for i, v := range cells {
		binary.LittleEndian.PutUint32(buf[precedenceHeaderLen+4*i:], v)
	}
	return buf
}

// TestUnmarshalPrecedenceRejectsNarrowingWrap: a wire cell above the
// header m is rejected before it is narrowed to the uint16 width m = 10
// picks. Narrowed first, W[0][1] = 65539 would read 3, and 3 + 7 = 10 would
// pass the pair check.
func TestUnmarshalPrecedenceRejectsNarrowingWrap(t *testing.T) {
	if w, err := UnmarshalPrecedence(wireEntry(2, 10, 0, 65539, 7, 0)); err == nil {
		t.Fatalf("decoded W[0][1] = %d, W[1][0] = %d under m = 10", w.At(0, 1), w.At(1, 0))
	}
	if _, err := UnmarshalPrecedence(wireEntry(2, 10, 0, 3, 7, 0)); err != nil {
		t.Fatalf("the in-range entry: %v", err)
	}
}

// TestPrecedenceWireWidths: a matrix decodes at the width its header m
// picks — uint16 up to 65535 rankings, int32 beyond — with the same cells,
// and re-encodes to the same bytes.
func TestPrecedenceWireWidths(t *testing.T) {
	for _, tc := range []struct {
		m         int
		cellBytes int64
	}{{65535, 2 * 4}, {65536, 4 * 4}, {70000, 4 * 4}} {
		data := wireEntry(2, tc.m, 0, uint32(tc.m-1), 1, 0)
		w, err := UnmarshalPrecedence(data)
		if err != nil {
			t.Fatalf("m=%d: %v", tc.m, err)
		}
		if w.At(0, 1) != tc.m-1 || w.At(1, 0) != 1 || w.Margin(0, 1) != tc.m-2 {
			t.Fatalf("m=%d: W[0][1] = %d, W[1][0] = %d", tc.m, w.At(0, 1), w.At(1, 0))
		}
		if got := w.CellBytes(); got != tc.cellBytes {
			t.Fatalf("m=%d: CellBytes = %d, want %d", tc.m, got, tc.cellBytes)
		}
		if again, _ := w.MarshalBinary(); !bytes.Equal(again, data) {
			t.Fatalf("m=%d: re-encoding differs", tc.m)
		}
	}
}
