package engine

import (
	"fmt"
	"math"
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

// TestDistinctProject: GroupBy without aggregates is the distinct
// projection, in first-appearance order.
func TestDistinctProject(t *testing.T) {
	tab := pubTable(t)
	d, err := tab.GroupBy([]string{"author"}, nil)
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

func TestSortBy(t *testing.T) {
	tab := pubTable(t)
	sorted := sortedClone(t, tab, []string{"year", "author"})
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
		t.Error("sorting a clone mutated the source table")
	}
	if err := tab.SortBy([]string{"missing"}); err == nil {
		t.Error("unknown sort column should error")
	}
}

func TestClone(t *testing.T) {
	tab := pubTable(t)
	n := tab.NumRows()
	c := tab.Clone()
	c.MustAppend(value.Tuple{value.NewString("MUTATED"), value.NewString("P9"), value.NewInt(2020), value.NewString("VLDB")})
	tab.MustAppend(value.Tuple{value.NewString("AX"), value.NewString("P8"), value.NewInt(2019), value.NewString("KDD")})
	if tab.NumRows() != n+1 || tab.Row(n)[0].Str() != "AX" || c.NumRows() != n+1 || c.Row(n)[0].Str() != "MUTATED" {
		t.Error("Clone should share no storage with its source")
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

// TestAppendCopiesValues: a table stores copies of the values it is
// given, so mutating a tuple after Append or AppendRows changes neither
// Row, GroupBy nor SelectEq.
func TestAppendCopiesValues(t *testing.T) {
	sch := Schema{{Name: "a", Kind: value.String}, {Name: "n", Kind: value.Int}}
	x, y := value.NewString("x"), value.NewString("y")
	for _, batch := range []bool{false, true} {
		rows := []value.Tuple{{x, value.NewInt(1)}, {x, value.NewInt(2)}}
		tab := NewTable(sch)
		if batch {
			if err := tab.AppendRows(rows); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, r := range rows {
				tab.MustAppend(r)
			}
		}
		rows[1][0] = y
		label := fmt.Sprintf("batch=%v", batch)
		if got := tab.Row(1)[0]; !value.Equal(got, x) {
			t.Errorf("%s: Row(1) key %v after mutating the appended tuple, want x", label, got)
		}
		g, err := tab.GroupBy([]string{"a"}, []AggSpec{{Func: Count}})
		if err != nil {
			t.Fatal(err)
		}
		if g.NumRows() != 1 || !value.Equal(g.Row(0)[0], x) || g.Row(0)[1].Int() != 2 {
			t.Errorf("%s: GroupBy(a) = %v, want one group (x, 2)", label, g)
		}
		sel, err := tab.SelectEq([]string{"a"}, value.Tuple{x})
		if err != nil {
			t.Fatal(err)
		}
		if sel.NumRows() != 2 || !value.Equal(sel.Row(1)[0], x) {
			t.Errorf("%s: SelectEq(a=x) = %v, want both rows keyed x", label, sel)
		}
	}
}

// identical reports whether a and b have the same kind and the same
// payload bits: stricter than value.Equal, which merges Int(1) with
// Float(1), −0.0 with +0.0 and every NaN.
func identical(a, b value.V) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case value.Int:
		return a.Int() == b.Int()
	case value.Float:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case value.String:
		return a.Str() == b.Str()
	}
	return true
}

// TestTableStoresExactValues: an untyped column whose dictionary
// classes mix kinds and bit patterns returns every value exactly as
// appended — one at a time or in batches, and after a SortBy — through
// Row, ScanRows and Clone.
func TestTableStoresExactValues(t *testing.T) {
	vals := []value.V{
		value.NewInt(1), value.NewFloat(1),
		value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)),
		value.NewFloat(math.NaN()), value.NewFloat(math.Float64frombits(0x7ff8000000000001)),
		value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1)),
		value.NewInt(1<<53 + 1), value.NewFloat(math.Ldexp(1, 63)),
		value.NewString(""), value.NewNull(),
		value.NewInt(0), value.NewFloat(1 << 53),
	}
	sch := Schema{{Name: "v", Kind: value.Null}, {Name: "id", Kind: value.Int}}
	var rows []value.Tuple
	for rep := 0; rep < 2; rep++ {
		for i, v := range vals {
			rows = append(rows, value.Tuple{v, value.NewInt(int64(rep*len(vals) + i))})
		}
	}
	check := func(label string, tab *Table, want []value.Tuple) {
		t.Helper()
		if tab.NumRows() != len(want) {
			t.Fatalf("%s: %d rows, want %d", label, tab.NumRows(), len(want))
		}
		same := func(how string, i int, got value.Tuple) {
			for c := range got {
				if !identical(got[c], want[i][c]) {
					t.Errorf("%s %s: row %d col %d = %v (%s), want %v (%s)", label, how, i, c,
						got[c], got[c].Kind(), want[i][c], want[i][c].Kind())
				}
			}
		}
		for i := range want {
			same("Row", i, tab.Row(i))
		}
		i := 0
		if err := tab.ScanRows(0, tab.NumRows(), func(row value.Tuple) error {
			same("ScanRows", i, row)
			i++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		clone := tab.Clone()
		for i := range want {
			same("Clone", i, clone.Row(i))
		}
	}

	single := NewTable(sch)
	for _, r := range rows {
		single.MustAppend(r)
	}
	check("one at a time", single, rows)
	batched := NewTable(sch)
	for lo := 0; lo < len(rows); lo += 5 {
		if err := batched.AppendRows(rows[lo:min(lo+5, len(rows))]); err != nil {
			t.Fatal(err)
		}
	}
	check("batches", batched, rows)
	if err := batched.SortBy([]string{"v"}); err != nil {
		t.Fatal(err)
	}
	check("SortBy", batched, sortedRows(rows, []int{0}))
}
