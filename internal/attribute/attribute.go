// Package attribute models the candidate database X of the MANI-Rank paper:
// a set of n candidates, each described by one or more categorical protected
// attributes (e.g. Gender, Race, Lunch). It exposes protected-attribute
// groups (paper Def. 1) and intersectional groups (paper Def. 2), which the
// fairness package scores and the core solvers constrain.
package attribute

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Attribute is a categorical protected attribute over a candidate universe:
// a name, a value domain, and the value index each candidate holds.
type Attribute struct {
	// Name identifies the attribute, e.g. "Gender".
	Name string
	// Values is the attribute's domain, e.g. ["Man", "Non-Binary", "Woman"].
	Values []string
	// Of[c] is the index into Values of candidate c's attribute value.
	Of []int
}

// NewAttribute validates and constructs an attribute. Every entry of `of`
// must index into values, and the domain must contain at least one value.
func NewAttribute(name string, values []string, of []int) (*Attribute, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("attribute %q: empty value domain", name)
	}
	for c, v := range of {
		if v < 0 || v >= len(values) {
			return nil, fmt.Errorf("attribute %q: candidate %d has value index %d outside domain of size %d", name, c, v, len(values))
		}
	}
	return &Attribute{Name: name, Values: values, Of: of}, nil
}

// DomainSize returns |dom(p)|, the number of values in the attribute domain.
func (a *Attribute) DomainSize() int { return len(a.Values) }

// N returns the number of candidates the attribute describes.
func (a *Attribute) N() int { return len(a.Of) }

// Group returns the candidate ids of the protected attribute group
// G(a:value) (paper Def. 1) in ascending id order.
func (a *Attribute) Group(value int) []int {
	var g []int
	for c, v := range a.Of {
		if v == value {
			g = append(g, c)
		}
	}
	return g
}

// GroupSizes returns the size of each value's group, indexed by value.
func (a *Attribute) GroupSizes() []int {
	sizes := make([]int, len(a.Values))
	for _, v := range a.Of {
		sizes[v]++
	}
	return sizes
}

// ValueOf returns the value label of candidate c.
func (a *Attribute) ValueOf(c int) string { return a.Values[a.Of[c]] }

// Table is the candidate database X: n candidates described by a list of
// protected attributes, all over the same candidate universe.
type Table struct {
	n         int
	attrs     []*Attribute
	interOnce sync.Once  // guards inter: tables are shared read-only across worker goroutines
	inter     *Attribute // lazily built intersection pseudo-attribute
}

// NewTable builds a candidate database of n candidates with the given
// protected attributes. Every attribute must describe exactly n candidates.
func NewTable(n int, attrs ...*Attribute) (*Table, error) {
	if n <= 0 {
		return nil, errors.New("attribute: table needs at least one candidate")
	}
	if len(attrs) == 0 {
		return nil, errors.New("attribute: table needs at least one protected attribute")
	}
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if a.N() != n {
			return nil, fmt.Errorf("attribute %q describes %d candidates, table has %d", a.Name, a.N(), n)
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("attribute: duplicate attribute name %q", a.Name)
		}
		seen[a.Name] = true
	}
	return &Table{n: n, attrs: attrs}, nil
}

// MustTable is NewTable that panics on error, for tests and generators whose
// inputs are constructed programmatically.
func MustTable(n int, attrs ...*Attribute) *Table {
	t, err := NewTable(n, attrs...)
	if err != nil {
		panic(err)
	}
	return t
}

// N returns the number of candidates in the database.
func (t *Table) N() int { return t.n }

// Attrs returns the protected attributes (shared slice; do not mutate).
func (t *Table) Attrs() []*Attribute { return t.attrs }

// Attr returns the attribute with the given name, or nil if absent.
func (t *Table) Attr(name string) *Attribute {
	for _, a := range t.attrs {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Intersection returns the intersection pseudo-attribute Inter = p1 x ... x pq
// (paper Section II-A): one value per distinct combination of protected
// attribute values that actually occurs among the candidates. Only occupied
// combinations form groups; empty combinations cannot influence parity.
// The result is cached.
func (t *Table) Intersection() *Attribute {
	t.interOnce.Do(func() { t.inter = t.buildIntersection() })
	return t.inter
}

func (t *Table) buildIntersection() *Attribute {
	type combo struct {
		key   string
		label string
	}
	keyOf := make([]string, t.n)
	labelOf := make([]string, t.n)
	for c := 0; c < t.n; c++ {
		var kb, lb strings.Builder
		for i, a := range t.attrs {
			if i > 0 {
				kb.WriteByte('|')
				lb.WriteByte('/')
			}
			fmt.Fprintf(&kb, "%d", a.Of[c])
			lb.WriteString(a.Values[a.Of[c]])
		}
		keyOf[c] = kb.String()
		labelOf[c] = lb.String()
	}
	uniq := map[string]combo{}
	for c := 0; c < t.n; c++ {
		uniq[keyOf[c]] = combo{key: keyOf[c], label: labelOf[c]}
	}
	combos := make([]combo, 0, len(uniq))
	for _, cb := range uniq {
		combos = append(combos, cb)
	}
	sort.Slice(combos, func(i, j int) bool { return combos[i].key < combos[j].key })
	index := make(map[string]int, len(combos))
	values := make([]string, len(combos))
	for i, cb := range combos {
		index[cb.key] = i
		values[i] = cb.label
	}
	of := make([]int, t.n)
	for c := 0; c < t.n; c++ {
		of[c] = index[keyOf[c]]
	}
	return &Attribute{Name: "Intersection", Values: values, Of: of}
}

// IntersectionOf returns the intersection pseudo-attribute over a subset of
// the table's protected attributes named in names (paper Section II-B,
// "Customizing Group Fairness"). It is not cached.
func (t *Table) IntersectionOf(names ...string) (*Attribute, error) {
	var subset []*Attribute
	for _, name := range names {
		a := t.Attr(name)
		if a == nil {
			return nil, fmt.Errorf("attribute: unknown attribute %q", name)
		}
		subset = append(subset, a)
	}
	if len(subset) == 0 {
		return nil, errors.New("attribute: IntersectionOf needs at least one attribute")
	}
	sub := &Table{n: t.n, attrs: subset}
	return sub.Intersection(), nil
}
