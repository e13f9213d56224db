package engine

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"cape/internal/value"
)

// The tests in this file pin every columnar kernel element-wise to the
// literal definitions of internal/oracle (oracleRel): the same rows are
// evaluated twice, once through the kernels and once through the
// oracle, and the results must be byte-identical — same row order, same
// value kinds, same payload encodings.

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
		return value.NewInt(int64(1)<<53 + int64(rng.Intn(3))) // one float64, distinct ints
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
// to the oracle over the same logical rows.
type kernelTarget struct {
	label string
	rel   Relation
	ref   Relation
}

// kernelTargets presents tab to the differential suites four ways: as a
// dense Table (one solo part) and as a SegTable of two sealed segments
// plus a tail, each at pool width 1 and 4. Sealed segments canonicalize
// AppendKey-equal values to one representative (Int(1) vs Float(1)),
// so the SegTable's oracle reads the rows the SegTable reads back;
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
			kernelTarget{fmt.Sprintf("table/w%d", width), dense, oracleOf(tab)},
			kernelTarget{fmt.Sprintf("segtable/w%d", width), st, oracleOf(readBack(t, st))})
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
// the oracle: random key sets and aggregates over mixed
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

// eqProbes are SelectEq values where a float64 comparison would
// disagree with the dictionary codes (NaN, magnitudes at and past 2^53)
// or that no row holds.
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
		selectEqAfterMutation(t, rng, tab, fmt.Sprintf("seed %d", seed))
	}
}

// edgeKeys are group keys where a float64 comparison would disagree
// with AppendKey: two NaN payloads, the integers 2^53 and 2^53+1 (one
// float64), ±0.0, and the floats ±2^63 around the int64 bounds. They
// form edgeKeyClasses value.Equal classes.
var edgeKeys = []value.V{
	value.NewFloat(math.NaN()), value.NewFloat(math.Float64frombits(0x7ff8000000000000)),
	value.NewInt(1 << 53), value.NewFloat(1 << 53), value.NewInt(1<<53 + 1),
	value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewInt(0),
	value.NewFloat(math.Ldexp(1, 63)), value.NewFloat(-math.Ldexp(1, 63)),
	value.NewInt(math.MinInt64), value.NewInt(math.MaxInt64), value.NewFloat(1.5),
}

const edgeKeyClasses = 8

// TestSelectEqSelectsEachGroup pins the one equality of grouping and
// selection: for every group of GroupBy(cols), SelectEq(cols, key)
// returns exactly that group's rows — on a dense Table and on a SegTable
// of sealed segments plus a tail, at pool widths 1 and 4.
func TestSelectEqSelectsEachGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := NewTable(Schema{{Name: "k", Kind: value.Null}, {Name: "s", Kind: value.String}, {Name: "v", Kind: value.Int}})
	for i := 0; i < 3000; i++ {
		tab.MustAppend(value.Tuple{
			edgeKeys[rng.Intn(len(edgeKeys))],
			value.NewString(fmt.Sprintf("s%d", rng.Intn(3))),
			value.NewInt(int64(rng.Intn(100))),
		})
	}
	for _, width := range []int{1, 4} {
		dense := tab.Clone()
		dense.SetPool(NewPool(width))
		st := segTableFromTable(t, tab, 3)
		st.SetPool(NewPool(width))
		for _, rel := range []Relation{dense, st} {
			for _, cols := range [][]string{{"k"}, {"k", "s"}, {"s", "k"}} {
				label := fmt.Sprintf("%T width %d %v", rel, width, cols)
				groups, err := rel.GroupBy(cols, []AggSpec{{Func: Count}})
				if err != nil {
					t.Fatal(err)
				}
				if len(cols) == 1 && groups.NumRows() != edgeKeyClasses {
					t.Fatalf("%s: %d groups, want %d:\n%s", label, groups.NumRows(), edgeKeyClasses, groups)
				}
				total := 0
				for _, g := range groups.Rows() {
					key, count := g[:len(cols)], g[len(cols)].Int()
					sel, err := rel.SelectEq(cols, key)
					if err != nil {
						t.Fatal(err)
					}
					if int64(sel.NumRows()) != count {
						t.Errorf("%s: SelectEq(%v) = %d rows, group count %d", label, key, sel.NumRows(), count)
					}
					total += sel.NumRows()
				}
				if total != tab.NumRows() {
					t.Errorf("%s: selections cover %d rows, want %d", label, total, tab.NumRows())
				}
			}
		}
	}
}

// selectEqAfterMutation probes a dense Table whose columnar view was
// built before an append (the view is extended in place) and again after
// a SortBy (the view is dropped and rebuilt), each time in the given and
// in reversed column order, against the oracle over the same rows.
func selectEqAfterMutation(t *testing.T, rng *rand.Rand, src *Table, label string) {
	t.Helper()
	tab := src.Clone()
	cols := randomCols(rng, tab, 1+rng.Intn(2))
	probe := func(stage string) {
		ref := oracleOf(tab)
		var vals []value.Tuple
		for i := 0; i < 6 && tab.NumRows() > 0; i++ {
			row := tab.Row(rng.Intn(tab.NumRows()))
			vals = append(vals, tupleOf(tab, row, cols))
		}
		for _, p := range eqProbes {
			v := make(value.Tuple, len(cols))
			for i := range v {
				v[i] = p
			}
			vals = append(vals, v)
		}
		rcols := append([]string(nil), cols...)
		for i, j := 0, len(rcols)-1; i < j; i, j = i+1, j-1 {
			rcols[i], rcols[j] = rcols[j], rcols[i]
		}
		for _, v := range vals {
			want, err := ref.SelectEq(cols, v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tab.SelectEq(cols, v)
			if err != nil {
				t.Fatal(err)
			}
			tablesIdentical(t, got, want, fmt.Sprintf("%s %s SelectEq(%v, %s)", label, stage, cols, v))
			rv := make(value.Tuple, len(v))
			for i := range v {
				rv[len(v)-1-i] = v[i]
			}
			got, err = tab.SelectEq(rcols, rv)
			if err != nil {
				t.Fatal(err)
			}
			tablesIdentical(t, got, want, fmt.Sprintf("%s %s SelectEq(%v, %s)", label, stage, rcols, rv))
		}
	}
	probe("before append")
	grow := randomTable(rng, 1+rng.Intn(20), len(tab.Schema()))
	if tab.NumRows() > 0 {
		// A row repeating an existing key lands in an existing class.
		grow.MustAppend(tab.Row(rng.Intn(tab.NumRows())).Clone())
	}
	if err := tab.AppendRows(grow.Rows()); err != nil {
		t.Fatal(err)
	}
	probe("after append")
	if err := tab.SortBy(randomCols(rng, tab, 1)); err != nil {
		t.Fatal(err)
	}
	probe("after SortBy")
}

// tupleOf projects row onto cols.
func tupleOf(tab *Table, row value.Tuple, cols []string) value.Tuple {
	out := make(value.Tuple, len(cols))
	for i, c := range cols {
		out[i] = row[tab.Schema().Index(c)]
	}
	return out
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
	for _, rel := range []Relation{tab, st} {
		for _, cols := range [][]string{{"g"}, {"v"}} {
			got, err := rel.GroupBy(cols, aggs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleOf(ref).GroupBy(cols, aggs)
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
		ref := oracleOf(tab)
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

		// A slice of the cube is the grouping over exactly that subset.
		for _, subset := range [][]string{{}, {"c1"}, {"c0", "c2"}, {"c0", "c1", "c2"}} {
			gs, err := CubeSlice(got, cols, subset, aggs)
			if err != nil {
				t.Fatal(err)
			}
			ws, err := ref.GroupBy(subset, aggs)
			if err != nil {
				t.Fatal(err)
			}
			tablesIdentical(t, gs, ws, fmt.Sprintf("seed %d CubeSlice(%v)", seed, subset))
		}
	}
}

// TestSortCodesColumnarDifferential: on tables mixing kinds, NULLs, NaN
// and integers past 2^53, sort codes rank every column's values exactly
// like value.Compare, and the counting sort they drive is the stable
// sort of the rows under value.Compare. Sort codes are a kernel-internal
// layout with no relational counterpart in the oracle, so the reference
// is the ordering definition itself.
func TestSortCodesColumnarDifferential(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := randomTable(rng, rng.Intn(150), 3)
		cols := tab.Schema().Names()
		codes, err := BuildSortCodes(tab, cols)
		if err != nil {
			t.Fatal(err)
		}
		rows := tab.Rows()
		for ci, c := range cols {
			cc := codes.Codes(c)
			for i := range rows {
				for j := range rows {
					if want, got := value.Compare(rows[i][ci], rows[j][ci]), cmp.Compare(cc[i], cc[j]); got != want {
						t.Fatalf("seed %d col %s: Compare(%s, %s) = %d, codes %d vs %d",
							seed, c, rows[i][ci], rows[j][ci], want, cc[i], cc[j])
					}
				}
			}
		}
		order := append([]string(nil), cols...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		perm := codes.NewPerm()
		if err := codes.SortPerm(perm, order, 0); err != nil {
			t.Fatal(err)
		}
		want := make([]int32, len(rows))
		for i := range want {
			want[i] = int32(i)
		}
		oIdx, _ := tab.Schema().Indices(order)
		sort.SliceStable(want, func(a, b int) bool {
			return project(rows[want[a]], oIdx).Compare(project(rows[want[b]], oIdx)) < 0
		})
		if !slices.Equal(perm, want) {
			t.Fatalf("seed %d SortPerm(%v) = %v, stable sort %v", seed, order, perm, want)
		}
	}
}

// project returns row's values at idx.
func project(row value.Tuple, idx []int) value.Tuple {
	out := make(value.Tuple, len(idx))
	for i, ci := range idx {
		out[i] = row[ci]
	}
	return out
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
	ref := oracleOf(tab)
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
	ref := oracleOf(tab)
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

// FuzzColumnarKernels drives GroupBy, SelectEq and CountDistinct on a
// fuzz-shaped table through the kernels and the oracle and requires
// identical output.
func FuzzColumnarKernels(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(2))
	f.Add(int64(2), uint8(0), uint8(1))
	f.Add(int64(3), uint8(150), uint8(3))
	f.Add(int64(-9), uint8(63), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, n, width uint8) {
		rng := rand.New(rand.NewSource(seed))
		tab := randomTable(rng, int(n), 1+int(width%4))
		ref := oracleOf(tab)
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
// explain drill-down access pattern — through the columnar kernel.
func BenchmarkSelectEqDrilldown(b *testing.B) {
	b.Run("columnar", func(b *testing.B) {
		tab := benchTable(20000)
		tab.Columns()
		rng := rand.New(rand.NewSource(9))
		keys := make([]value.Tuple, 64)
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

// TestDegenerateQueriesMatchOracle: queries over no columns and over an
// empty table, which the parts kernels do not take, still answer as the
// definitions do — SelectEq on no columns selects every row, a non-empty
// table has one distinct empty combination, and an empty table has no
// groups at all.
func TestDegenerateQueriesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	full := randomTable(rng, 30, 2)
	for _, tab := range []*Table{full, NewTable(full.Schema())} {
		for _, kt := range kernelTargets(t, tab) {
			label := fmt.Sprintf("%d rows %s", tab.NumRows(), kt.label)
			for _, cols := range [][]string{nil, {"c0"}} {
				vals := make(value.Tuple, len(cols))
				for i := range vals {
					vals[i] = value.NewString("s1")
				}
				got, err := kt.rel.SelectEq(cols, vals)
				if err != nil {
					t.Fatal(err)
				}
				want, err := kt.ref.SelectEq(cols, vals)
				if err != nil {
					t.Fatal(err)
				}
				tablesIdentical(t, got, want, fmt.Sprintf("%s SelectEq(%v)", label, cols))
				gotP, err := kt.rel.DistinctProject(cols)
				if err != nil {
					t.Fatal(err)
				}
				wantP, err := kt.ref.DistinctProject(cols)
				if err != nil {
					t.Fatal(err)
				}
				tablesIdentical(t, gotP, wantP, fmt.Sprintf("%s DistinctProject(%v)", label, cols))
				gotN, err := kt.rel.CountDistinct(cols)
				if err != nil {
					t.Fatal(err)
				}
				wantN, err := kt.ref.CountDistinct(cols)
				if err != nil {
					t.Fatal(err)
				}
				if gotN != wantN {
					t.Errorf("%s CountDistinct(%v) = %d, want %d", label, cols, gotN, wantN)
				}
				gotG, err := kt.rel.GroupBy(cols, []AggSpec{{Func: Count}, {Func: Sum, Arg: "c1"}})
				if err != nil {
					t.Fatal(err)
				}
				wantG, err := kt.ref.GroupBy(cols, []AggSpec{{Func: Count}, {Func: Sum, Arg: "c1"}})
				if err != nil {
					t.Fatal(err)
				}
				tablesIdentical(t, gotG, wantG, fmt.Sprintf("%s GroupBy(%v)", label, cols))
			}
		}
	}
}
