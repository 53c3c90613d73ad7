package attribute

import (
	"bytes"
	"strings"
	"testing"
)

func mustAttr(t *testing.T, name string, values []string, of []int) *Attribute {
	t.Helper()
	a, err := NewAttribute(name, values, of)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewAttributeValidation(t *testing.T) {
	if _, err := NewAttribute("g", nil, []int{0}); err == nil {
		t.Error("empty domain accepted")
	}
	if _, err := NewAttribute("g", []string{"A"}, []int{1}); err == nil {
		t.Error("out-of-domain value accepted")
	}
	if _, err := NewAttribute("g", []string{"A"}, []int{-1}); err == nil {
		t.Error("negative value accepted")
	}
}

func TestAttributeAccessors(t *testing.T) {
	a := mustAttr(t, "Gender", []string{"M", "W"}, []int{0, 1, 0, 1, 1})
	if a.DomainSize() != 2 || a.N() != 5 {
		t.Fatal("sizes wrong")
	}
	if got := a.Group(1); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("Group(1) = %v", got)
	}
	if sizes := a.GroupSizes(); sizes[0] != 2 || sizes[1] != 3 {
		t.Fatalf("GroupSizes = %v", sizes)
	}
	if a.ValueOf(0) != "M" || a.ValueOf(4) != "W" {
		t.Fatal("ValueOf wrong")
	}
}

func TestNewTableValidation(t *testing.T) {
	a := mustAttr(t, "A", []string{"x", "y"}, []int{0, 1, 0})
	if _, err := NewTable(0, a); err == nil {
		t.Error("zero candidates accepted")
	}
	if _, err := NewTable(3); err == nil {
		t.Error("no attributes accepted")
	}
	if _, err := NewTable(4, a); err == nil {
		t.Error("size mismatch accepted")
	}
	b := mustAttr(t, "A", []string{"x"}, []int{0, 0, 0})
	if _, err := NewTable(3, a, b); err == nil {
		t.Error("duplicate attribute name accepted")
	}
}

func TestIntersection(t *testing.T) {
	g := mustAttr(t, "Gender", []string{"M", "W"}, []int{0, 0, 1, 1})
	r := mustAttr(t, "Race", []string{"A", "B"}, []int{0, 1, 0, 1})
	tab, err := NewTable(4, g, r)
	if err != nil {
		t.Fatal(err)
	}
	inter := tab.Intersection()
	if inter.DomainSize() != 4 {
		t.Fatalf("intersection domain %d, want 4", inter.DomainSize())
	}
	// Every candidate in its own group here.
	for v, size := range inter.GroupSizes() {
		if size != 1 {
			t.Fatalf("group %d size %d", v, size)
		}
	}
	// Labels combine the attribute values.
	if !strings.Contains(inter.Values[0], "/") {
		t.Fatalf("label %q lacks separator", inter.Values[0])
	}
	// Cached: same pointer on second call.
	if tab.Intersection() != inter {
		t.Fatal("intersection not cached")
	}
}

func TestIntersectionOnlyOccupiedCombos(t *testing.T) {
	// 2x2 domain but only 2 combinations occupied.
	g := mustAttr(t, "G", []string{"M", "W"}, []int{0, 0, 1})
	r := mustAttr(t, "R", []string{"A", "B"}, []int{0, 0, 1})
	tab, err := NewTable(3, g, r)
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Intersection().DomainSize(); got != 2 {
		t.Fatalf("occupied combos = %d, want 2", got)
	}
}

func TestIntersectionOfSubset(t *testing.T) {
	g := mustAttr(t, "G", []string{"M", "W"}, []int{0, 1, 0, 1})
	r := mustAttr(t, "R", []string{"A", "B"}, []int{0, 0, 1, 1})
	l := mustAttr(t, "L", []string{"N", "S"}, []int{0, 1, 1, 0})
	tab, err := NewTable(4, g, r, l)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := tab.IntersectionOf("G", "R")
	if err != nil {
		t.Fatal(err)
	}
	if sub.DomainSize() != 4 {
		t.Fatalf("subset intersection domain %d, want 4", sub.DomainSize())
	}
	if _, err := tab.IntersectionOf("Nope"); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := tab.IntersectionOf(); err == nil {
		t.Error("empty subset accepted")
	}
}

func TestAttrLookup(t *testing.T) {
	g := mustAttr(t, "G", []string{"M", "W"}, []int{0, 1})
	tab, err := NewTable(2, g)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Attr("G") == nil || tab.Attr("X") != nil {
		t.Fatal("Attr lookup wrong")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	g := mustAttr(t, "Gender", []string{"Man", "Woman"}, []int{0, 1, 1})
	r := mustAttr(t, "Race", []string{"A", "B"}, []int{1, 0, 1})
	tab, err := NewTable(3, g, r)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTableCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTableCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 3 || len(got.Attrs()) != 2 {
		t.Fatal("round trip shape wrong")
	}
	for c := 0; c < 3; c++ {
		if got.Attr("Gender").ValueOf(c) != tab.Attr("Gender").ValueOf(c) {
			t.Fatalf("candidate %d gender mismatch", c)
		}
		if got.Attr("Race").ValueOf(c) != tab.Attr("Race").ValueOf(c) {
			t.Fatalf("candidate %d race mismatch", c)
		}
	}
}

func TestReadTableCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		csv  string
	}{
		{"no body", "candidate,G\n"},
		{"no attrs", "candidate\n0\n"},
		{"bad id", "candidate,G\nx,M\n"},
		{"sparse ids", "candidate,G\n0,M\n2,W\n"},
		{"dup ids", "candidate,G\n0,M\n0,W\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadTableCSV(strings.NewReader(tc.csv)); err == nil {
				t.Fatalf("accepted %q", tc.csv)
			}
		})
	}
}

func TestReadTableCSVValues(t *testing.T) {
	in := "candidate,Gender,Lunch\n1,W,Sub\n0,M,NoSub\n"
	tab, err := ReadTableCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tab.N() != 2 {
		t.Fatalf("n = %d", tab.N())
	}
	if tab.Attr("Gender").ValueOf(0) != "M" || tab.Attr("Gender").ValueOf(1) != "W" {
		t.Fatal("ids not honoured")
	}
	if tab.Attr("Lunch").ValueOf(1) != "Sub" {
		t.Fatal("second attribute wrong")
	}
}
