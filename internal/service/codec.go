package service

import (
	"encoding/json"

	"manirank/internal/ranking"
	"manirank/internal/service/cache"
)

// resultCodec serialises cached consensus results for the persistent tier as
// JSON — the same wire shape the HTTP response embeds, so a restored entry is
// byte-equivalent to what the original request would have answered.
func resultCodec() cache.Codec[*result] {
	return cache.Codec[*result]{
		Encode: func(r *result) ([]byte, error) { return json.Marshal(r) },
		Decode: func(data []byte) (*result, error) {
			var r result
			if err := json.Unmarshal(data, &r); err != nil {
				return nil, err
			}
			return &r, nil
		},
	}
}

// matrixCodec serialises precedence matrices in ranking's flat-int32 wire
// form (MarshalBinary / UnmarshalPrecedence) — one linear pass each way, and
// the persisted entry is exactly as compact as the live matrix.
func matrixCodec() cache.Codec[*ranking.Precedence] {
	return cache.Codec[*ranking.Precedence]{
		Encode: (*ranking.Precedence).MarshalBinary,
		Decode: ranking.UnmarshalPrecedence,
	}
}
