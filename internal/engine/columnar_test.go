package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"cape/internal/value"
)

// The tests in this file pin every columnar kernel element-wise to the
// row-oriented reference implementation: the same table is evaluated
// twice, once through the default (columnar) path and once through a
// ForceRowPath clone, and the results must be byte-identical — same row
// order, same value kinds, same payload encodings.

// valueIdentical is stricter than value.Equal: the kinds and canonical
// encodings must both match, so Int(1) vs Float(1) — Equal but
// distinguishable — count as different.
func valueIdentical(a, b value.V) bool {
	return a.Kind() == b.Kind() && bytes.Equal(a.AppendKey(nil), b.AppendKey(nil))
}

func tablesIdentical(t *testing.T, got, want *Table, label string) {
	t.Helper()
	gs, ws := got.Schema().Names(), want.Schema().Names()
	if len(gs) != len(ws) {
		t.Fatalf("%s: schema width %d != %d", label, len(gs), len(ws))
	}
	for i := range gs {
		if gs[i] != ws[i] {
			t.Fatalf("%s: schema[%d] %q != %q", label, i, gs[i], ws[i])
		}
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s: %d rows != %d rows\ngot:\n%swant:\n%s",
			label, got.NumRows(), want.NumRows(), got, want)
	}
	for ri := 0; ri < want.NumRows(); ri++ {
		gr, wr := got.Row(ri), want.Row(ri)
		for ci := range wr {
			if !valueIdentical(gr[ci], wr[ci]) {
				t.Fatalf("%s: row %d col %d: got %s (%s), want %s (%s)",
					label, ri, ci, gr[ci], gr[ci].Kind(), wr[ci], wr[ci].Kind())
			}
		}
	}
}

// randomValue draws from a small domain so that duplicates, ties across
// kinds (Int vs Float), NULLs, and pathological floats all occur.
func randomValue(rng *rand.Rand) value.V {
	switch rng.Intn(12) {
	case 0:
		return value.NewNull()
	case 1, 2, 3:
		return value.NewInt(int64(rng.Intn(6)))
	case 4:
		return value.NewFloat(float64(rng.Intn(6))) // Compare-equal to Ints
	case 5:
		return value.NewFloat(float64(rng.Intn(6)) + 0.5)
	case 6:
		return value.NewFloat(math.NaN())
	case 7:
		return value.NewInt(int64(1)<<53 + int64(rng.Intn(3))) // float-rounding collisions
	default:
		return value.NewString(fmt.Sprintf("s%d", rng.Intn(5)))
	}
}

func randomTable(rng *rand.Rand, n, width int) *Table {
	sch := make(Schema, width)
	for i := range sch {
		sch[i] = Column{Name: fmt.Sprintf("c%d", i), Kind: value.Null}
	}
	t := NewTable(sch)
	for r := 0; r < n; r++ {
		row := make(value.Tuple, width)
		for c := range row {
			row[c] = randomValue(rng)
		}
		t.MustAppend(row)
	}
	return t
}

func randomCols(rng *rand.Rand, t *Table, k int) []string {
	names := t.Schema().Names()
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	if k > len(names) {
		k = len(names)
	}
	return names[:k]
}

func randomAggs(rng *rand.Rand, t *Table) []AggSpec {
	names := t.Schema().Names()
	funcs := []AggFunc{Count, Sum, Avg, Min, Max}
	aggs := []AggSpec{{Func: Count}} // count(*)
	for i := 0; i < 1+rng.Intn(3); i++ {
		aggs = append(aggs, AggSpec{
			Func: funcs[rng.Intn(len(funcs))],
			Arg:  names[rng.Intn(len(names))],
		})
	}
	return aggs
}

// kernelTarget is one relation the kernel differentials evaluate, next
// to the ForceRowPath reference over the same logical rows.
type kernelTarget struct {
	label string
	rel   Relation
	ref   *Table
}

// kernelTargets presents tab to the differential suites four ways: as a
// dense Table (one solo part) and as a SegTable of two sealed segments
// plus a tail, each at pool width 1 and 4. Sealed segments canonicalize
// AppendKey-equal values to one representative (Int(1) vs Float(1)),
// so the SegTable's reference is built from the rows it reads back;
// its tail keeps the mixed kinds as stored.
func kernelTargets(t *testing.T, tab *Table) []kernelTarget {
	t.Helper()
	var out []kernelTarget
	for _, width := range []int{1, 4} {
		dense := tab.Clone()
		dense.SetPool(NewPool(width))
		st := segTableFromTable(t, tab, 2)
		st.SetPool(NewPool(width))
		out = append(out,
			kernelTarget{fmt.Sprintf("table/w%d", width), dense, tab.Clone().ForceRowPath(true)},
			kernelTarget{fmt.Sprintf("segtable/w%d", width), st, readBack(t, st).ForceRowPath(true)})
	}
	return out
}

// readBack copies a SegTable's rows, as its scans return them, into a
// Table.
func readBack(t *testing.T, st *SegTable) *Table {
	t.Helper()
	out := NewTable(st.Schema())
	if err := st.ScanRows(0, st.NumRows(), func(row value.Tuple) error {
		return out.Append(row.Clone())
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// kernelTable is randomTable plus a high-cardinality float column "hf"
// (distinct values, an occasional Int or NULL), so Sum/Avg also fold
// long float chains where every row is its own dictionary class.
func kernelTable(rng *rand.Rand, n, width int) *Table {
	src := randomTable(rng, n, width)
	sch := append(src.Schema().Clone(), Column{Name: "hf", Kind: value.Null})
	out := NewTable(sch)
	for i, r := range src.Rows() {
		var hf value.V
		switch rng.Intn(10) {
		case 0:
			hf = value.NewNull()
		case 1:
			hf = value.NewInt(int64(i))
		default:
			hf = value.NewFloat(rng.Float64() * 1e6)
		}
		out.MustAppend(append(r.Clone(), hf))
	}
	return out
}

// TestGroupByColumnarDifferential pins GroupBy on every kernel target to
// the row-path reference: random key sets and aggregates over mixed
// Int/Float classes, NULL and NaN keys, plus the global group and
// Min/Max/Sum/Avg over every column (NaN with Min/Max, high-cardinality
// float sums) on each table.
func TestGroupByColumnarDifferential(t *testing.T) {
	setMorselTarget(t, 16)
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := kernelTable(rng, rng.Intn(400), 2+rng.Intn(3))
		names := tab.Schema().Names()
		every := []AggSpec{{Func: Count}}
		for _, c := range names {
			every = append(every, AggSpec{Func: Min, Arg: c}, AggSpec{Func: Max, Arg: c},
				AggSpec{Func: Sum, Arg: c}, AggSpec{Func: Avg, Arg: c})
		}
		queries := []struct {
			cols []string
			aggs []AggSpec
		}{
			{nil, every},
			{names[:1], every},
		}
		for trial := 0; trial < 4; trial++ {
			queries = append(queries, struct {
				cols []string
				aggs []AggSpec
			}{randomCols(rng, tab, 1+rng.Intn(3)), randomAggs(rng, tab)})
		}
		for _, kt := range kernelTargets(t, tab) {
			for _, q := range queries {
				got, err := kt.rel.GroupBy(q.cols, q.aggs)
				if err != nil {
					t.Fatal(err)
				}
				want, err := kt.ref.GroupBy(q.cols, q.aggs)
				if err != nil {
					t.Fatal(err)
				}
				tablesIdentical(t, got, want,
					fmt.Sprintf("seed %d %s GroupBy(%v, %v)", seed, kt.label, q.cols, q.aggs))
			}
		}
	}
}

// eqProbes are SelectEq values where code equality and value.Equal can
// diverge (NaN, magnitudes at and past 2^53) or that no row holds.
var eqProbes = []value.V{
	value.NewNull(),
	value.NewFloat(math.NaN()),
	value.NewInt(1 << 53),
	value.NewInt(1<<53 + 1),
	value.NewFloat(float64(int64(1) << 53)),
	value.NewFloat(2.5),
	value.NewString("absent"),
}

func TestSelectEqColumnarDifferential(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := randomTable(rng, rng.Intn(150), 2+rng.Intn(3))
		targets := kernelTargets(t, tab)
		for trial := 0; trial < 8; trial++ {
			cols := randomCols(rng, tab, 1+rng.Intn(2))
			vals := make(value.Tuple, len(cols))
			for i, c := range cols {
				if tab.NumRows() > 0 && rng.Intn(3) > 0 {
					// Value present in the column (usually).
					ci := tab.Schema().Index(c)
					vals[i] = tab.Row(rng.Intn(tab.NumRows()))[ci]
				} else {
					vals[i] = eqProbes[rng.Intn(len(eqProbes))]
				}
			}
			for _, kt := range targets {
				got, err := kt.rel.SelectEq(cols, vals)
				if err != nil {
					t.Fatal(err)
				}
				want, err := kt.ref.SelectEq(cols, vals)
				if err != nil {
					t.Fatal(err)
				}
				tablesIdentical(t, got, want,
					fmt.Sprintf("seed %d %s SelectEq(%v, %s)", seed, kt.label, cols, vals))
			}
		}
	}
}

func TestCountDistinctColumnarDifferential(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := randomTable(rng, rng.Intn(150), 2+rng.Intn(3))
		targets := kernelTargets(t, tab)
		for trial := 0; trial < 4; trial++ {
			cols := randomCols(rng, tab, 1+rng.Intn(3))
			for _, kt := range targets {
				label := fmt.Sprintf("seed %d %s", seed, kt.label)
				got, err := kt.rel.CountDistinct(cols)
				if err != nil {
					t.Fatal(err)
				}
				want, err := kt.ref.CountDistinct(cols)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s CountDistinct(%v): got %d, want %d", label, cols, got, want)
				}
				gotP, err := kt.rel.DistinctProject(cols)
				if err != nil {
					t.Fatal(err)
				}
				wantP, err := kt.ref.DistinctProject(cols)
				if err != nil {
					t.Fatal(err)
				}
				tablesIdentical(t, gotP, wantP, fmt.Sprintf("%s DistinctProject(%v)", label, cols))
			}
		}
	}
}

// TestAppendMixedKindSum: a Float(1) appended after the column's view
// was built joins the dictionary class whose representative is Int(1);
// Sum over the column must still turn Float, on Table and SegTable.
func TestAppendMixedKindSum(t *testing.T) {
	sch := Schema{{Name: "g", Kind: value.Null}, {Name: "v", Kind: value.Null}}
	ints := []value.Tuple{
		{value.NewString("a"), value.NewInt(1)},
		{value.NewString("a"), value.NewInt(1)},
	}
	tab := NewTable(sch)
	if err := tab.AppendRows(ints); err != nil {
		t.Fatal(err)
	}
	st := segTableFromTable(t, tab, 1)
	aggs := []AggSpec{{Func: Sum, Arg: "v"}, {Func: Avg, Arg: "v"}}
	for _, rel := range []MutableRelation{tab, st} {
		// Build the views: v as a key (dictionary) and as an argument.
		for _, cols := range [][]string{{"g"}, {"v"}} {
			if _, err := rel.GroupBy(cols, aggs); err != nil {
				t.Fatal(err)
			}
		}
		if err := rel.AppendRows([]value.Tuple{{value.NewString("a"), value.NewFloat(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	ref := NewTable(sch)
	if err := ref.AppendRows(append(append([]value.Tuple{}, ints...), value.Tuple{value.NewString("a"), value.NewFloat(1)})); err != nil {
		t.Fatal(err)
	}
	ref.ForceRowPath(true)
	for _, rel := range []Relation{tab, st} {
		for _, cols := range [][]string{{"g"}, {"v"}} {
			got, err := rel.GroupBy(cols, aggs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.GroupBy(cols, aggs)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%T GroupBy(%v)", rel, cols)
			tablesIdentical(t, got, want, label)
			if sum := got.Row(0)[1]; sum.Kind() != value.Float || sum.Float() != 3 {
				t.Fatalf("%s: sum = %s (%s), want Float(3)", label, sum, sum.Kind())
			}
		}
	}
}

func TestCubeColumnarDifferential(t *testing.T) {
	aggs := []AggSpec{{Func: Count}, {Func: Sum, Arg: "c0"}, {Func: Avg, Arg: "c1"}}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := randomTable(rng, rng.Intn(80), 3)
		ref := tab.Clone().ForceRowPath(true)
		cols := []string{"c0", "c1", "c2"}
		got, err := tab.Cube(cols, 0, 3, aggs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Cube(cols, 0, 3, aggs)
		if err != nil {
			t.Fatal(err)
		}
		tablesIdentical(t, got, want, fmt.Sprintf("seed %d Cube", seed))

		for _, subset := range [][]string{{}, {"c1"}, {"c0", "c2"}, {"c0", "c1", "c2"}} {
			gs, err := CubeSlice(got, cols, subset, aggs)
			if err != nil {
				t.Fatal(err)
			}
			ws, err := CubeSlice(want.Clone().ForceRowPath(true), cols, subset, aggs)
			if err != nil {
				t.Fatal(err)
			}
			tablesIdentical(t, gs, ws, fmt.Sprintf("seed %d CubeSlice(%v)", seed, subset))
		}
	}
}

func TestSortCodesColumnarDifferential(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := randomTable(rng, rng.Intn(150), 3)
		ref := tab.Clone().ForceRowPath(true)
		cols := tab.Schema().Names()
		got, err := BuildSortCodes(tab, cols)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BuildSortCodes(ref, cols)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cols {
			gc, wc := got.Codes(c), want.Codes(c)
			if len(gc) != len(wc) {
				t.Fatalf("seed %d col %s: %d codes != %d", seed, c, len(gc), len(wc))
			}
			for i := range wc {
				if gc[i] != wc[i] {
					t.Fatalf("seed %d col %s row %d: code %d != %d (value %s)",
						seed, c, i, gc[i], wc[i], tab.Row(i)[tab.Schema().Index(c)])
				}
			}
		}
		// Same codes must drive the counting sort to the same permutation.
		order := append([]string(nil), cols...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		gp, wp := got.NewPerm(), want.NewPerm()
		if err := got.SortPerm(gp, order, 0); err != nil {
			t.Fatal(err)
		}
		if err := want.SortPerm(wp, order, 0); err != nil {
			t.Fatal(err)
		}
		for i := range wp {
			if gp[i] != wp[i] {
				t.Fatalf("seed %d SortPerm(%v) diverges at %d: %d != %d", seed, order, i, gp[i], wp[i])
			}
		}
	}
}

// TestColumnarInvalidation pins the cache rules: Append extends the
// columnar view in place (same Columnar, new rows visible), while SortBy
// drops it (and indexes), so later queries always see current rows.
func TestColumnarInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := randomTable(rng, 50, 2)
	if _, err := tab.GroupBy([]string{"c0"}, []AggSpec{{Func: Count}}); err != nil {
		t.Fatal(err)
	}
	before := tab.Columns()
	tab.MustAppend(value.Tuple{value.NewString("fresh"), value.NewInt(99)})
	if tab.Columns() != before {
		t.Fatal("Append must extend the columnar view in place, not drop it")
	}
	if tab.Columns().NumRows() != 51 {
		t.Fatalf("extended columnar view has %d rows, want 51", tab.Columns().NumRows())
	}
	got, err := tab.SelectEq([]string{"c0"}, value.Tuple{value.NewString("fresh")})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 1 {
		t.Fatalf("appended row not visible through columnar SelectEq: got %d rows", got.NumRows())
	}

	before = tab.Columns()
	if err := tab.SortBy([]string{"c1"}); err != nil {
		t.Fatal(err)
	}
	if tab.Columns() == before {
		t.Fatal("SortBy did not invalidate the columnar view")
	}
	ref := tab.Clone().ForceRowPath(true)
	g1, err := tab.GroupBy([]string{"c0"}, []AggSpec{{Func: Count}})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ref.GroupBy([]string{"c0"}, []AggSpec{{Func: Count}})
	if err != nil {
		t.Fatal(err)
	}
	tablesIdentical(t, g1, g2, "post-SortBy GroupBy")
}

// TestColumnarConcurrent hammers one table from many goroutines (run
// under -race by make check): the lazy column builds must be safe and
// every result identical to the precomputed reference.
func TestColumnarConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tab := randomTable(rng, 300, 4)
	ref := tab.Clone().ForceRowPath(true)
	cols := []string{"c0", "c1"}
	aggs := []AggSpec{{Func: Count}, {Func: Sum, Arg: "c2"}}
	wantG, err := ref.GroupBy(cols, aggs)
	if err != nil {
		t.Fatal(err)
	}
	wantN, err := ref.CountDistinct([]string{"c3"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				g, err := tab.GroupBy(cols, aggs)
				if err != nil {
					errs <- err.Error()
					return
				}
				if g.NumRows() != wantG.NumRows() {
					errs <- fmt.Sprintf("GroupBy rows %d != %d", g.NumRows(), wantG.NumRows())
					return
				}
				for ri := 0; ri < wantG.NumRows(); ri++ {
					for ci := range wantG.Row(ri) {
						if !valueIdentical(g.Row(ri)[ci], wantG.Row(ri)[ci]) {
							errs <- fmt.Sprintf("GroupBy cell %d/%d differs", ri, ci)
							return
						}
					}
				}
				n, err := tab.CountDistinct([]string{"c3"})
				if err != nil {
					errs <- err.Error()
					return
				}
				if n != wantN {
					errs <- fmt.Sprintf("CountDistinct %d != %d", n, wantN)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestSelectEqUsesIndex proves a hash index built over the queried
// column set answers SelectEq with output identical to the scan paths,
// including column order permutations (indexes are canonical over the
// sorted column set) and absent keys.
func TestSelectEqUsesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := randomTable(rng, 200, 3)
	scan := tab.Clone().ForceRowPath(true)
	if err := tab.BuildIndex([]string{"c0", "c1"}); err != nil {
		t.Fatal(err)
	}
	if !tab.HasIndex([]string{"c1", "c0"}) {
		t.Fatal("index should be canonical over column order")
	}
	queries := make([]value.Tuple, 0, 24)
	for i := 0; i < 20; i++ {
		r := tab.Row(rng.Intn(tab.NumRows()))
		queries = append(queries, value.Tuple{r[0], r[1]})
	}
	queries = append(queries,
		value.Tuple{value.NewString("absent"), value.NewString("absent")},
		value.Tuple{value.NewNull(), value.NewInt(2)},
	)
	for _, q := range queries {
		got, err := tab.SelectEq([]string{"c0", "c1"}, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := scan.SelectEq([]string{"c0", "c1"}, q)
		if err != nil {
			t.Fatal(err)
		}
		tablesIdentical(t, got, want, fmt.Sprintf("indexed SelectEq(%s)", q))
		// Swapped column order must hit the same index and agree too.
		swapped, err := tab.SelectEq([]string{"c1", "c0"}, value.Tuple{q[1], q[0]})
		if err != nil {
			t.Fatal(err)
		}
		tablesIdentical(t, swapped, want, fmt.Sprintf("swapped indexed SelectEq(%s)", q))
	}
}

// FuzzColumnarKernels drives GroupBy, SelectEq and CountDistinct on a
// fuzz-shaped table through both paths and requires identical output.
func FuzzColumnarKernels(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(2))
	f.Add(int64(2), uint8(0), uint8(1))
	f.Add(int64(3), uint8(150), uint8(3))
	f.Add(int64(-9), uint8(63), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, n, width uint8) {
		rng := rand.New(rand.NewSource(seed))
		tab := randomTable(rng, int(n), 1+int(width%4))
		ref := tab.Clone().ForceRowPath(true)
		cols := randomCols(rng, tab, 1+rng.Intn(2))
		aggs := randomAggs(rng, tab)
		got, err := tab.GroupBy(cols, aggs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.GroupBy(cols, aggs)
		if err != nil {
			t.Fatal(err)
		}
		tablesIdentical(t, got, want, "fuzz GroupBy")
		var q value.Tuple
		ci := tab.Schema().Index(cols[0])
		if tab.NumRows() > 0 {
			q = value.Tuple{tab.Row(rng.Intn(tab.NumRows()))[ci]}
		} else {
			q = value.Tuple{value.NewInt(1)}
		}
		gs, err := tab.SelectEq(cols[:1], q)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := ref.SelectEq(cols[:1], q)
		if err != nil {
			t.Fatal(err)
		}
		tablesIdentical(t, gs, ws, "fuzz SelectEq")
		gn, err := tab.CountDistinct(cols)
		if err != nil {
			t.Fatal(err)
		}
		wn, err := ref.CountDistinct(cols)
		if err != nil {
			t.Fatal(err)
		}
		if gn != wn {
			t.Fatalf("fuzz CountDistinct: %d != %d", gn, wn)
		}
	})
}

func benchTable(n int) *Table {
	rng := rand.New(rand.NewSource(42))
	sch := Schema{
		{Name: "a", Kind: value.String},
		{Name: "b", Kind: value.Int},
		{Name: "m", Kind: value.Float},
	}
	t := NewTable(sch)
	for i := 0; i < n; i++ {
		t.MustAppend(value.Tuple{
			value.NewString(fmt.Sprintf("a%d", rng.Intn(200))),
			value.NewInt(int64(rng.Intn(50))),
			value.NewFloat(rng.Float64() * 100),
		})
	}
	return t
}

// BenchmarkSelectEqDrilldown measures repeated point lookups — the
// explain drill-down access pattern — through the three paths.
func BenchmarkSelectEqDrilldown(b *testing.B) {
	keys := make([]value.Tuple, 64)
	for mode, setup := range map[string]func(*Table){
		"indexed":  func(t *Table) { _ = t.BuildIndex([]string{"a"}) },
		"columnar": func(t *Table) { t.Columns() },
		"rowscan":  func(t *Table) { t.ForceRowPath(true) },
	} {
		b.Run(mode, func(b *testing.B) {
			tab := benchTable(20000)
			setup(tab)
			rng := rand.New(rand.NewSource(9))
			for i := range keys {
				keys[i] = value.Tuple{tab.Row(rng.Intn(tab.NumRows()))[0]}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tab.SelectEq([]string{"a"}, keys[i%len(keys)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
