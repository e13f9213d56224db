package engine

import (
	"testing"

	"cape/internal/value"
)

func pubSchema() Schema {
	return Schema{
		{Name: "author", Kind: value.String},
		{Name: "pubid", Kind: value.String},
		{Name: "year", Kind: value.Int},
		{Name: "venue", Kind: value.String},
	}
}

// pubTable builds the running-example Pub table from Figure 1 of the
// paper.
func pubTable(t *testing.T) *Table {
	t.Helper()
	tab := NewTable(pubSchema())
	rows := []struct {
		author, pubid string
		year          int64
		venue         string
	}{
		{"AX", "P1", 2004, "SIGKDD"},
		{"AX", "P2", 2004, "SIGKDD"},
		{"AX", "P3", 2005, "SIGKDD"},
		{"AX", "P4", 2005, "SIGKDD"},
		{"AX", "P5", 2005, "ICDE"},
		{"AY", "P2", 2004, "SIGKDD"},
		{"AY", "P6", 2004, "ICDE"},
		{"AY", "P7", 2004, "ICDM"},
		{"AY", "P8", 2005, "ICDE"},
		{"AZ", "P9", 2004, "SIGMOD"},
	}
	for _, r := range rows {
		tab.MustAppend(value.Tuple{
			value.NewString(r.author), value.NewString(r.pubid),
			value.NewInt(r.year), value.NewString(r.venue),
		})
	}
	return tab
}

func TestSchemaIndexAndNames(t *testing.T) {
	s := pubSchema()
	if s.Index("year") != 2 {
		t.Errorf("Index(year) = %d", s.Index("year"))
	}
	if s.Index("nope") != -1 {
		t.Error("Index of missing column should be -1")
	}
	names := s.Names()
	if len(names) != 4 || names[0] != "author" || names[3] != "venue" {
		t.Errorf("Names = %v", names)
	}
}

func TestSchemaIndices(t *testing.T) {
	s := pubSchema()
	idx, err := s.Indices([]string{"venue", "author"})
	if err != nil || idx[0] != 3 || idx[1] != 0 {
		t.Errorf("Indices = %v, %v", idx, err)
	}
	if _, err := s.Indices([]string{"author", "bogus"}); err == nil {
		t.Error("expected error for unknown column")
	}
}

func TestSchemaCloneAndEqual(t *testing.T) {
	s := pubSchema()
	c := s.Clone()
	if !s.Equal(c) {
		t.Error("clone should be Equal")
	}
	c[0].Name = "x"
	if s.Equal(c) {
		t.Error("mutated clone should differ")
	}
	if s[0].Name != "author" {
		t.Error("clone mutation leaked into original")
	}
	if s.Equal(s[:3]) {
		t.Error("different lengths should not be Equal")
	}
}

func TestAppendArityAndTypeChecks(t *testing.T) {
	tab := NewTable(pubSchema())
	if err := tab.Append(value.Tuple{value.NewString("a")}); err == nil {
		t.Error("arity mismatch should error")
	}
	bad := value.Tuple{value.NewInt(1), value.NewString("p"), value.NewInt(2000), value.NewString("v")}
	if err := tab.Append(bad); err == nil {
		t.Error("type mismatch should error")
	}
	withNull := value.Tuple{value.NewNull(), value.NewString("p"), value.NewInt(2000), value.NewString("v")}
	if err := tab.Append(withNull); err != nil {
		t.Errorf("NULL should be accepted in typed column: %v", err)
	}
}

func TestSelect(t *testing.T) {
	tab := pubTable(t)
	ax := tab.Select(func(r value.Tuple) bool { return r[0].Str() == "AX" })
	if ax.NumRows() != 5 {
		t.Errorf("AX rows = %d, want 5", ax.NumRows())
	}
	none := tab.Select(func(r value.Tuple) bool { return false })
	if none.NumRows() != 0 {
		t.Error("empty selection should have no rows")
	}
}

func TestSelectEq(t *testing.T) {
	tab := pubTable(t)
	got, err := tab.SelectEq([]string{"author", "year"}, value.Tuple{value.NewString("AY"), value.NewInt(2004)})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 {
		t.Errorf("AY 2004 rows = %d, want 3", got.NumRows())
	}
	if _, err := tab.SelectEq([]string{"author"}, value.Tuple{}); err == nil {
		t.Error("value/column count mismatch should error")
	}
	if _, err := tab.SelectEq([]string{"ghost"}, value.Tuple{value.NewInt(1)}); err == nil {
		t.Error("unknown column should error")
	}
}

func TestProject(t *testing.T) {
	tab := pubTable(t)
	p, err := tab.Project([]string{"venue", "year"})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumRows() != tab.NumRows() {
		t.Error("Project should preserve row count")
	}
	if p.Schema()[0].Name != "venue" || p.Schema()[1].Name != "year" {
		t.Errorf("projected schema = %v", p.Schema())
	}
	if p.Row(0)[0].Str() != "SIGKDD" || p.Row(0)[1].Int() != 2004 {
		t.Errorf("projected row = %v", p.Row(0))
	}
	if _, err := tab.Project([]string{"missing"}); err == nil {
		t.Error("unknown column should error")
	}
}

func TestDistinctProject(t *testing.T) {
	tab := pubTable(t)
	d, err := tab.DistinctProject([]string{"author"})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 3 {
		t.Errorf("distinct authors = %d, want 3", d.NumRows())
	}
	// First-appearance order.
	if d.Row(0)[0].Str() != "AX" || d.Row(1)[0].Str() != "AY" || d.Row(2)[0].Str() != "AZ" {
		t.Errorf("distinct order = %v", d.Rows())
	}
}

func TestCountDistinct(t *testing.T) {
	tab := pubTable(t)
	n, err := tab.CountDistinct([]string{"author", "year"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 { // AX×{04,05}, AY×{04,05}, AZ×{04}
		t.Errorf("CountDistinct(author,year) = %d, want 5", n)
	}
	if _, err := tab.CountDistinct([]string{"nope"}); err == nil {
		t.Error("unknown column should error")
	}
}

func TestSortByAndSorted(t *testing.T) {
	tab := pubTable(t)
	sorted, err := tab.Sorted([]string{"year", "author"})
	if err != nil {
		t.Fatal(err)
	}
	prevYear, prevAuthor := int64(-1), ""
	for _, r := range sorted.Rows() {
		y, a := r[2].Int(), r[0].Str()
		if y < prevYear || (y == prevYear && a < prevAuthor) {
			t.Fatalf("not sorted at row %v", r)
		}
		prevYear, prevAuthor = y, a
	}
	// Original table untouched.
	if tab.Row(0)[1].Str() != "P1" {
		t.Error("Sorted mutated the source table")
	}
	if err := tab.SortBy([]string{"missing"}); err == nil {
		t.Error("unknown sort column should error")
	}
}

func TestClone(t *testing.T) {
	tab := pubTable(t)
	c := tab.Clone()
	c.Rows()[0][0] = value.NewString("MUTATED")
	if tab.Row(0)[0].Str() != "AX" {
		t.Error("Clone should deep-copy rows")
	}
}

func TestTableString(t *testing.T) {
	tab := NewTable(Schema{{Name: "a", Kind: value.Int}, {Name: "b", Kind: value.String}})
	tab.MustAppend(value.Tuple{value.NewInt(1), value.NewString("x")})
	want := "a | b\n1 | x\n"
	if got := tab.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestMustAppendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAppend should panic on bad row")
		}
	}()
	NewTable(pubSchema()).MustAppend(value.Tuple{})
}
