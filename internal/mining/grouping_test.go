package mining

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cape/internal/engine"
	"cape/internal/value"
)

// requireGroupBy asserts got is the table rel.GroupBy returns for got's
// own columns — its first nKeys name the grouping, the rest its
// aggregates — row for row, values with their kinds.
func requireGroupBy(t *testing.T, label string, rel engine.Relation, got *engine.Table, nKeys int) {
	t.Helper()
	names := got.Schema().Names()
	var aggs []engine.AggSpec
	for _, n := range names[nKeys:] {
		a, err := engine.ParseAggSpec(n)
		if err != nil {
			t.Fatal(err)
		}
		aggs = append(aggs, a)
	}
	want, err := rel.GroupBy(names[:nKeys], aggs)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s %v: %d groups, want %d", label, names, got.NumRows(), want.NumRows())
	}
	for i := 0; i < want.NumRows(); i++ {
		g, w := got.Row(i), want.Row(i)
		for j := range w {
			if g[j].Kind() != w[j].Kind() || value.Compare(g[j], w[j]) != 0 {
				t.Fatalf("%s %v row %d: %v, want %v", label, names, i, g, w)
			}
		}
	}
}

// TestMaintainerGrouping: Grouping serves every grouping set's retained
// table — GroupBy's over the rows as they stand, whatever the order of
// the asked columns — publishes it once per fold and declines what it
// cannot serve: attribute sets it holds no grouping of, aggregates the
// set lacks, a relation that moved since the last CatchUp, and one that
// rewrote folded rows since the last CatchUp rebuilt.
func TestMaintainerGrouping(t *testing.T) {
	tab := testTable(t, 300)
	m, err := NewMaintainer(tab, lenientOpts())
	if err != nil {
		t.Fatal(err)
	}
	count := engine.AggSpec{Func: engine.Count}
	check := func(label string) {
		t.Helper()
		for _, gs := range m.gsets {
			cols := slices.Clone(gs.attrs)
			slices.Reverse(cols)
			got, ok := m.Grouping(cols, count)
			if !ok {
				t.Fatalf("%s: grouping %v declined", label, cols)
			}
			requireGroupBy(t, label, tab, got, len(cols))
			if again, ok := m.Grouping(gs.attrs, gs.aggs[len(gs.aggs)-1]); !ok || again != got {
				t.Errorf("%s: grouping %v published twice between folds", label, gs.attrs)
			}
		}
	}
	check("build")

	sumCites := engine.AggSpec{Func: engine.Sum, Arg: "cites"}
	for _, tc := range []struct {
		cols []string
		agg  engine.AggSpec
	}{
		{[]string{"author"}, count}, // no grouping set of one attribute
		{[]string{"author", "author"}, count},
		{[]string{"author", "pages"}, count},
		{[]string{"author", "venue", "year", "cites"}, count}, // above ψ
		{[]string{"author", "cites"}, sumCites},               // cites groups: no sum of it
		{[]string{"author", "venue"}, engine.AggSpec{Func: engine.Avg, Arg: "cites"}},
	} {
		if _, ok := m.Grouping(tc.cols, tc.agg); ok {
			t.Errorf("Grouping(%v, %s) served a grouping set it has none of", tc.cols, tc.agg)
		}
	}

	pair := []string{"venue", "author"}
	before, _ := m.Grouping(pair, count)
	if allocs := testing.AllocsPerRun(100, func() { m.Grouping(pair, count) }); allocs != 0 && !raceEnabled {
		t.Errorf("a published grouping's lookup allocates %v times, want 0", allocs)
	}
	n := before.NumRows()
	tab.MustAppend(value.Tuple{value.NewString("a9"), value.NewString("KDD"), value.NewInt(2003), value.NewInt(12)})
	if _, ok := m.Grouping(pair, count); ok {
		t.Error("Grouping served a table behind the relation's rows")
	}
	if err := m.CatchUp(); err != nil {
		t.Fatal(err)
	}
	check("after append")
	if after, _ := m.Grouping(pair, count); after == before || after.NumRows() != n+1 || before.NumRows() != n {
		t.Errorf("a new group: published %d → %d groups, the earlier table now %d", n, after.NumRows(), before.NumRows())
	}

	// A Compact that seals +0 and −0 as one dictionary class rewrites a
	// folded row: the retained state keeps the row as it was folded, so
	// Grouping declines until CatchUp rebuilds it, and serves GroupBy's
	// table again afterwards.
	st := engine.NewSegTable(engine.Schema{{Name: "k", Kind: value.Float}, {Name: "g", Kind: value.String}, {Name: "y", Kind: value.Int}})
	for i := 0; i < 40; i++ {
		k := value.NewFloat(float64(i % 3))
		if i%6 == 3 {
			k = value.NewFloat(math.Copysign(0, -1))
		}
		if err := st.AppendRows([]value.Tuple{{k, value.NewString(fmt.Sprint("g", i%2)), value.NewInt(int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	sm, err := NewMaintainer(st, Options{MaxPatternSize: 2, Attributes: []string{"k", "g"}, Thresholds: lenientOpts().Thresholds})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sm.Grouping([]string{"g", "k"}, count); !ok {
		t.Fatal("grouping declined before the Compact")
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.RewriteEpoch() == 0 {
		t.Fatal("the Compact rewrote no row; the case is vacuous")
	}
	if _, ok := sm.Grouping([]string{"g", "k"}, count); ok {
		t.Error("Grouping served a table after the relation rewrote folded rows")
	}
	if err := sm.CatchUp(); err != nil {
		t.Fatal(err)
	}
	got, ok := sm.Grouping([]string{"g", "k"}, count)
	if !ok {
		t.Fatal("Grouping declines after CatchUp rebuilt the rewritten state")
	}
	requireGroupBy(t, "after the rebuild", st, got, 2)
}
