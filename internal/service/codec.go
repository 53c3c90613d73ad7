package service

import (
	"encoding/json"
	"errors"
	"fmt"

	"manirank"
	"manirank/internal/ranking"
	"manirank/internal/service/cache"
)

// resultCodec serialises cached consensus results for the persistent tier as
// JSON — the same wire shape the HTTP response embeds, so a restored entry is
// byte-equivalent to what the original request would have answered. Decode
// is a trust boundary (peer reads and disk restores both pass through it),
// so it rejects any result no solve could have produced; a peer read is
// further checked against the request it answers (resultFetch).
func resultCodec() cache.Codec[*result] {
	return cache.Codec[*result]{
		Encode: func(r *result) ([]byte, error) { return json.Marshal(r) },
		Decode: func(data []byte) (*result, error) {
			var r result
			if err := json.Unmarshal(data, &r); err != nil {
				return nil, err
			}
			if err := r.validate(); err != nil {
				return nil, err
			}
			return &r, nil
		},
	}
}

// validate rejects a decoded result whose ranking is not a non-empty
// permutation, whose PD loss lies outside [0, 1], or whose method is not one
// the service solves.
func (r *result) validate() error {
	if len(r.Ranking) == 0 {
		return errors.New("service: result has no ranking")
	}
	if err := r.Ranking.Validate(); err != nil {
		return fmt.Errorf("service: result ranking: %w", err)
	}
	if r.PDLoss < 0 || r.PDLoss > 1 {
		return fmt.Errorf("service: result pd_loss %v outside [0, 1]", r.PDLoss)
	}
	m, err := manirank.ParseMethod(r.Method)
	if err != nil {
		return err
	}
	if m.Baseline() {
		return fmt.Errorf("service: result method %q is not served", r.Method)
	}
	return nil
}

// matrixCodec serialises precedence matrices in ranking's MRW1 wire form
// (MarshalBinary / UnmarshalPrecedence): flat uint32 cells whatever the
// live width, one linear pass each way.
func matrixCodec() cache.Codec[*ranking.Precedence] {
	return cache.Codec[*ranking.Precedence]{
		Encode: (*ranking.Precedence).MarshalBinary,
		Decode: ranking.UnmarshalPrecedence,
	}
}
