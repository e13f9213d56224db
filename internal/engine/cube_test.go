package engine

import (
	"testing"

	"cape/internal/value"
)

func TestCubeCoversAllSubsets(t *testing.T) {
	tab := pubTable(t)
	cols := []string{"author", "year", "venue"}
	aggs := []AggSpec{{Func: Count}}
	cube, err := Cube(tab, nil, cols, 1, 3, aggs)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct grouping bitmasks = number of subsets of size 1..3 = 7.
	gIdx := cube.Schema().Index(GroupingColumn)
	masks := map[int64]bool{}
	for _, r := range cube.Rows() {
		masks[r[gIdx].Int()] = true
	}
	if len(masks) != 7 {
		t.Errorf("distinct groupings = %d, want 7", len(masks))
	}
}

func TestCubeSliceMatchesGroupBy(t *testing.T) {
	tab := pubTable(t)
	cols := []string{"author", "year", "venue"}
	aggs := []AggSpec{{Func: Count}}
	cube, err := Cube(tab, nil, cols, 1, 3, aggs)
	if err != nil {
		t.Fatal(err)
	}
	for _, subset := range [][]string{
		{"author"}, {"year"}, {"venue"},
		{"author", "year"}, {"author", "venue"}, {"year", "venue"},
		{"author", "year", "venue"},
	} {
		slice, err := CubeSlice(cube, cols, subset, aggs)
		if err != nil {
			t.Fatalf("slice %v: %v", subset, err)
		}
		direct, err := tab.GroupBy(subset, aggs)
		if err != nil {
			t.Fatal(err)
		}
		if slice.NumRows() != direct.NumRows() {
			t.Fatalf("slice %v: %d rows, group-by has %d", subset, slice.NumRows(), direct.NumRows())
		}
		// Compare as multisets via sorted string rendering.
		s1, s2 := sortedClone(t, slice, subset), sortedClone(t, direct, subset)
		for i := range s1.Rows() {
			if !s1.Row(i).Equal(s2.Row(i)) {
				t.Errorf("slice %v row %d: %v vs %v", subset, i, s1.Row(i), s2.Row(i))
			}
		}
	}
}

func TestCubeSizeBounds(t *testing.T) {
	tab := pubTable(t)
	cols := []string{"author", "year", "venue"}
	cube, err := Cube(tab, nil, cols, 2, 2, []AggSpec{{Func: Count}})
	if err != nil {
		t.Fatal(err)
	}
	gIdx := cube.Schema().Index(GroupingColumn)
	masks := map[int64]bool{}
	for _, r := range cube.Rows() {
		masks[r[gIdx].Int()] = true
	}
	if len(masks) != 3 { // C(3,2) subsets
		t.Errorf("distinct size-2 groupings = %d, want 3", len(masks))
	}
}

func TestCubeInvalidBounds(t *testing.T) {
	tab := pubTable(t)
	if _, err := Cube(tab, nil, []string{"author"}, 2, 1, nil); err == nil {
		t.Error("min>max should error")
	}
	if _, err := Cube(tab, nil, []string{"author"}, 0, 5, nil); err == nil {
		t.Error("max beyond column count should error")
	}
	if _, err := Cube(tab, nil, []string{"ghost"}, 1, 1, nil); err == nil {
		t.Error("unknown column should error")
	}
}

func TestCubeSliceErrors(t *testing.T) {
	tab := pubTable(t)
	cols := []string{"author", "year"}
	aggs := []AggSpec{{Func: Count}}
	cube, err := Cube(tab, nil, cols, 1, 2, aggs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CubeSlice(cube, cols, []string{"venue"}, aggs); err == nil {
		t.Error("subset outside cube columns should error")
	}
	if _, err := CubeSlice(tab, cols, []string{"author"}, aggs); err == nil {
		t.Error("non-cube table should error (no grouping column)")
	}
	if _, err := CubeSlice(cube, cols, []string{"author"}, []AggSpec{{Func: Sum, Arg: "zz"}}); err == nil {
		t.Error("missing aggregate column should error")
	}
}

func TestCubeNullGroupValueDistinctFromRollup(t *testing.T) {
	// A genuine NULL group value must not be confused with a rolled-up
	// column: the grouping bitmask distinguishes them.
	tab := NewTable(Schema{{Name: "a", Kind: value.Null}, {Name: "b", Kind: value.Null}})
	tab.MustAppend(value.Tuple{value.NewNull(), value.NewInt(1)})
	tab.MustAppend(value.Tuple{value.NewString("x"), value.NewInt(2)})
	aggs := []AggSpec{{Func: Count}}
	cube, err := Cube(tab, nil, []string{"a", "b"}, 1, 2, aggs)
	if err != nil {
		t.Fatal(err)
	}
	slice, err := CubeSlice(cube, []string{"a", "b"}, []string{"a"}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	if slice.NumRows() != 2 {
		t.Fatalf("grouping on a should yield 2 groups (NULL and x), got %d", slice.NumRows())
	}
}

// TestCubeSliceMatchesGroupByAllAggregates extends the count-only check
// to sum/avg/min/max over a numeric column.
func TestCubeSliceMatchesGroupByAllAggregates(t *testing.T) {
	tab := pubTable(t)
	cols := []string{"author", "venue"}
	aggs := []AggSpec{
		{Func: Count},
		{Func: Sum, Arg: "year"},
		{Func: Avg, Arg: "year"},
		{Func: Min, Arg: "year"},
		{Func: Max, Arg: "year"},
	}
	cube, err := Cube(tab, nil, cols, 1, 2, aggs)
	if err != nil {
		t.Fatal(err)
	}
	for _, subset := range [][]string{{"author"}, {"venue"}, {"author", "venue"}} {
		slice, err := CubeSlice(cube, cols, subset, aggs)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := tab.GroupBy(subset, aggs)
		if err != nil {
			t.Fatal(err)
		}
		s1, s2 := sortedClone(t, slice, subset), sortedClone(t, direct, subset)
		if s1.NumRows() != s2.NumRows() {
			t.Fatalf("subset %v: %d vs %d rows", subset, s1.NumRows(), s2.NumRows())
		}
		for i := range s1.Rows() {
			if !s1.Row(i).Equal(s2.Row(i)) {
				t.Errorf("subset %v row %d: %v vs %v", subset, i, s1.Row(i), s2.Row(i))
			}
		}
	}
}
