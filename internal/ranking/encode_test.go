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
