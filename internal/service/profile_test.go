package service

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzProfileRows is the differential check of ProfileRows against
// encoding/json's own [][]int decoding: for any bytes, json.Unmarshal into
// either type must agree on accept/reject, and on accept give deeply equal
// values, nil and empty rows told apart. A direct UnmarshalJSON call walks
// strictly, so it must reach the same decision and value too, on bytes that
// are not valid JSON included.
func FuzzProfileRows(f *testing.F) {
	for _, seed := range []string{
		"-0", "[[-0]]", "1.0", "[[1.0]]", "1e2", "[[1e2]]", "[[1E+2]]", "[[-1.5e-3]]",
		"9223372036854775808", "[[9223372036854775808]]", "[[-9223372036854775808]]",
		"[[9223372036854775807]]", "[[-9223372036854775809]]", "[[18446744073709551616]]",
		`"1"`, `[["1"]]`, `[[0,"1"]]`, "true", "[[true]]", "[[false]]", "{}", "[{}]", "[[{}]]",
		"null", "[null]", "[[null]]", "[[1,null,2]]", "[]", "[[]]", "[[],[0]]", "[[[1]]]",
		"[1]", `["a"]`, "[[01]]", "[[-]]", "[[1,]]", "[[1]],", "[[1]] x", "[[1]", "nul", "[nul]",
		" \t\n[ \r[ 0 , 1 ] ,\n null ,[ ]\t, [\n2\r,\t-3 ] ] \n",
		string(serveMixProfile()),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want [][]int
		wantErr := json.Unmarshal(data, &want)
		var viaJSON ProfileRows
		viaErr := json.Unmarshal(data, &viaJSON)
		var direct ProfileRows
		directErr := direct.UnmarshalJSON(data)
		for _, got := range []struct {
			name string
			rows ProfileRows
			err  error
		}{{"json.Unmarshal", viaJSON, viaErr}, {"UnmarshalJSON", direct, directErr}} {
			if (got.err == nil) != (wantErr == nil) {
				t.Fatalf("%s: err %v, [][]int err %v, input %q", got.name, got.err, wantErr, data)
			}
			if wantErr == nil && !reflect.DeepEqual([][]int(got.rows), want) {
				t.Fatalf("%s: %#v, [][]int %#v, input %q", got.name, got.rows, want, data)
			}
		}
	})
}

// serveMixProfile is a profile the size of a serve-mix request's: 40
// rankings of 60 candidates, spaced as json.Marshal writes them.
func serveMixProfile() []byte {
	rng := rand.New(rand.NewSource(1))
	rows := make([][]int, 40)
	for i := range rows {
		rows[i] = rng.Perm(60)
	}
	blob, err := json.Marshal(rows)
	if err != nil {
		panic(err)
	}
	return blob
}
