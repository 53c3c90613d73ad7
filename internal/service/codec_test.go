package service

import (
	"reflect"
	"testing"

	"manirank"
)

// FuzzResultCodec drives the result tier's decoder — the boundary that peer
// reads and disk restores both cross — with arbitrary bytes. It
// must never panic, every value it accepts must be a permutation solved by a
// served method, and an accepted value must survive an encode/decode round
// trip unchanged. The seed corpus lives in testdata/fuzz/FuzzResultCodec.
func FuzzResultCodec(f *testing.F) {
	codec := resultCodec()
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := codec.Decode(data)
		if err != nil {
			return
		}
		if !v.Ranking.IsValid() || len(v.Ranking) == 0 {
			t.Fatalf("accepted invalid ranking %v", v.Ranking)
		}
		if m, err := manirank.ParseMethod(v.Method); err != nil || m.Baseline() {
			t.Fatalf("accepted unserved method %q", v.Method)
		}
		enc, err := codec.Encode(v)
		if err != nil {
			t.Fatalf("accepted value does not encode: %v", err)
		}
		again, err := codec.Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded value rejected: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(again, v) {
			t.Fatalf("round trip changed the value:\n in  %+v\n out %+v", v, again)
		}
	})
}
