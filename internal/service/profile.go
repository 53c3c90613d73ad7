package service

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"

	"manirank/internal/ranking"
)

// ProfileRows is the wire form of a profile: one row per ranker, candidate
// ids from top to bottom. It decodes from JSON to exactly the value, and
// with exactly the accept/reject decision, that encoding/json gives a
// [][]int, but walks the bytes directly: on a result-cache hit the
// profile's few thousand integers were most of a request's CPU when
// encoding/json stored each through reflection.
type ProfileRows [][]int

// profile returns the rows as a ranking.Profile; the rankings share the
// rows' backing arrays.
func (p ProfileRows) profile() ranking.Profile {
	out := make(ranking.Profile, len(p))
	for i, row := range p {
		out[i] = row
	}
	return out
}

var (
	intType  = reflect.TypeFor[int]()
	rowType  = reflect.TypeFor[[]int]()
	rowsType = reflect.TypeFor[ProfileRows]()
)

// UnmarshalJSON implements json.Unmarshaler. encoding/json validates the
// syntax of the whole body before it calls this, so the work here is
// turning a valid value into rows; the walk is still strict, so bytes that
// are not a JSON value are an error rather than a guess. As with [][]int:
// null gives a nil profile (or row), [] an empty non-nil one, a null
// element leaves its int at 0, and an integer outside int's range, a
// fraction or exponent, a string, a bool, an object or a nested array is a
// *json.UnmarshalTypeError. Validating the rows as permutations is
// buildProblem's job.
func (p *ProfileRows) UnmarshalJSON(data []byte) error {
	s := rowScanner{b: data}
	var rows ProfileRows
	switch s.peek() {
	case 'n':
		if err := s.null(); err != nil {
			return err
		}
	case '[':
		rows = ProfileRows{}
		hint := 0 // rows of a valid profile share one length
		err := s.array(func() error {
			row, err := s.row(hint)
			rows = append(rows, row)
			hint = len(row)
			return err
		})
		if err != nil {
			return err
		}
	default:
		return s.mismatch(rowsType)
	}
	if s.peek(); s.i != len(s.b) {
		return s.syntaxError()
	}
	*p = rows
	return nil
}

// rowScanner walks one JSON value; i is the offset of the next unread byte.
type rowScanner struct {
	b []byte
	i int
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (s *rowScanner) peek() byte {
	b, i := s.b, s.i // locals keep the loop in registers
	for ; i < len(b); i++ {
		switch c := b[i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			s.i = i
			return c
		}
	}
	s.i = i
	return 0
}

// array walks the array whose '[' is the next byte, calling elem to decode
// each element.
func (s *rowScanner) array(elem func() error) error {
	s.i++
	if s.peek() == ']' {
		s.i++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch s.peek() {
		case ']':
			s.i++
			return nil
		case ',':
			s.i++
		default:
			return s.syntaxError()
		}
	}
}

// row decodes one ranking; hint sizes its backing array.
func (s *rowScanner) row(hint int) ([]int, error) {
	switch s.peek() {
	case 'n':
		return nil, s.null()
	case '[':
	default:
		return nil, s.mismatch(rowType)
	}
	row := make([]int, 0, hint)
	err := s.array(func() error {
		v, err := s.id()
		row = append(row, v)
		return err
	})
	return row, err
}

// id decodes one candidate id. Like strconv.ParseInt it accepts "-0" and
// the full range of int, math.MinInt included.
func (s *rowScanner) id() (int, error) {
	switch c := s.peek(); {
	case c == 'n':
		return 0, s.null() // encoding/json leaves an int untouched on null
	case c != '-' && (c < '0' || c > '9'):
		return 0, s.mismatch(intType)
	}
	b, i := s.b, s.i
	start := i
	neg := b[i] == '-'
	if neg {
		i++
	}
	digits := i
	var u uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		u = u*10 + uint64(b[i]-'0') // 19 digits always fit; more is caught below
	}
	n := i - digits
	s.i = i
	if n == 0 || b[digits] == '0' && n > 1 {
		return 0, s.syntaxError()
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	notInt := n > 19 || u > limit
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		for i < len(b) && isNumberByte(b[i]) {
			i++
		}
		s.i = i
		notInt = true // a fraction or exponent: valid JSON, not an int
	}
	if notInt {
		return 0, &json.UnmarshalTypeError{Value: "number " + string(b[start:i]), Type: intType}
	}
	v := int(u) // wraps to math.MinInt for -(MaxInt+1), which negates to itself
	if neg {
		v = -v
	}
	return v, nil
}

func isNumberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-'
}

// null consumes the literal null.
func (s *rowScanner) null() error {
	if len(s.b)-s.i < 4 || string(s.b[s.i:s.i+4]) != "null" {
		return s.syntaxError()
	}
	s.i += 4
	return nil
}

// mismatch reports the value starting at the next byte as not decodable
// into t, naming it the way encoding/json does.
func (s *rowScanner) mismatch(t reflect.Type) error {
	var what string
	switch c := s.peek(); {
	case c == '"':
		what = "string"
	case c == 't' || c == 'f':
		what = "bool"
	case c == '{':
		what = "object"
	case c == '[':
		what = "array"
	case c == '-' || '0' <= c && c <= '9':
		what = "number"
	default:
		return s.syntaxError()
	}
	return &json.UnmarshalTypeError{Value: what, Type: t}
}

func (s *rowScanner) syntaxError() error {
	return fmt.Errorf("profile: invalid JSON at offset %d", s.i)
}
