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
// literal definitions of internal/oracle (oracleRel): the rows a test
// generates are evaluated twice, once loaded into the table under test
// and through its kernels, once as generated through the oracle, and
// the results must be byte-identical — same row order, same value
// kinds, same payload encodings.

// valueIdentical is stricter than value.Equal: the kinds and canonical
// encodings must both match, so Int(1) vs Float(1) — Equal but
// distinguishable — count as different.
func valueIdentical(a, b value.V) bool {
	return a.Kind() == b.Kind() && bytes.Equal(a.AppendKey(nil), b.AppendKey(nil))
}

// rowTable is what tablesIdentical compares: a Table, or an oracle
// answer.
type rowTable interface {
	Schema() Schema
	NumRows() int
	Row(i int) value.Tuple
}

func tablesIdentical(t *testing.T, got, want rowTable, label string) {
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

func randomTable(rng *rand.Rand, n, width int) genTable {
	sch := make(Schema, width)
	for i := range sch {
		sch[i] = Column{Name: fmt.Sprintf("c%d", i), Kind: value.Null}
	}
	rows := make([]value.Tuple, n)
	for r := range rows {
		rows[r] = make(value.Tuple, width)
		for c := range rows[r] {
			rows[r][c] = randomValue(rng)
		}
	}
	return newGenTable(sch, rows)
}

// schemaHolder is anything with a schema: a Table, a genTable, a
// SegTable.
type schemaHolder interface{ Schema() Schema }

func randomCols(rng *rand.Rand, t schemaHolder, k int) []string {
	names := t.Schema().Names()
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	if k > len(names) {
		k = len(names)
	}
	return names[:k]
}

func randomAggs(rng *rand.Rand, t schemaHolder) []AggSpec {
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
// to the oracle over the same logical rows, and the pool a Cube over it
// fans its masks across.
type kernelTarget struct {
	label string
	rel   Relation
	ref   *oracleRel
	pool  *Pool
}

// kernelTargets presents tab to the differential suites four ways: as a
// dense Table (one solo part) and as a SegTable of two sealed segments
// plus a tail, each at pool width 1 and 4. Sealed segments canonicalize
// AppendKey-equal values to one representative (Int(1) vs Float(1)),
// so the SegTable's oracle reads the generated rows canonicalized the
// same way (segTableOf); its tail keeps the mixed kinds as generated.
func kernelTargets(t *testing.T, tab genTable) []kernelTarget {
	t.Helper()
	var out []kernelTarget
	for _, width := range []int{1, 4} {
		st, logical := segTableOf(t, tab, 2)
		out = append(out,
			kernelTarget{fmt.Sprintf("table/w%d", width), tab.Clone(), tab.oracle(), NewPool(width)},
			kernelTarget{fmt.Sprintf("segtable/w%d", width), st, logical.oracle(), NewPool(width)})
	}
	return out
}

// checkDistinct holds GroupBy(cols, nil), the engine's distinct
// projection, to the literal δ over the reference rows.
func checkDistinct(t *testing.T, rel Relation, ref *oracleRel, cols []string, label string) {
	t.Helper()
	got, err := rel.GroupBy(cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.DistinctProject(cols)
	if err != nil {
		t.Fatal(err)
	}
	tablesIdentical(t, got, want, fmt.Sprintf("%s GroupBy(%v, nil)", label, cols))
}

// kernelTable is randomTable plus a high-cardinality float column "hf"
// (distinct values, an occasional Int or NULL), so Sum/Avg also fold
// long float chains where every row is its own dictionary class.
func kernelTable(rng *rand.Rand, n, width int) genTable {
	src := randomTable(rng, n, width)
	sch := append(src.Schema().Clone(), Column{Name: "hf", Kind: value.Null})
	rows := make([]value.Tuple, len(src.rows))
	for i, r := range src.rows {
		var hf value.V
		switch rng.Intn(10) {
		case 0:
			hf = value.NewNull()
		case 1:
			hf = value.NewInt(int64(i))
		default:
			hf = value.NewFloat(rng.Float64() * 1e6)
		}
		rows[i] = append(r.Clone(), hf)
	}
	return newGenTable(sch, rows)
}

// TestGroupByColumnarDifferential pins GroupBy on every kernel target to
// the oracle: random key sets and aggregates over mixed
// Int/Float classes, NULL and NaN keys, plus the global group and
// Min/Max/Sum/Avg over every column (NaN with Min/Max, high-cardinality
// float sums) on each table.
func TestGroupByColumnarDifferential(t *testing.T) {
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

// TestSelectEqColumnarDifferential pins SelectEq, a dense Table's
// selection, to the oracle.
func TestSelectEqColumnarDifferential(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := randomTable(rng, rng.Intn(150), 2+rng.Intn(3))
		ref := tab.oracle()
		for trial := 0; trial < 8; trial++ {
			cols := randomCols(rng, tab, 1+rng.Intn(2))
			vals := make(value.Tuple, len(cols))
			for i, c := range cols {
				if tab.NumRows() > 0 && rng.Intn(3) > 0 {
					// Value present in the column (usually).
					ci := tab.Schema().Index(c)
					vals[i] = tab.rows[rng.Intn(tab.NumRows())][ci]
				} else {
					vals[i] = eqProbes[rng.Intn(len(eqProbes))]
				}
			}
			got, err := tab.SelectEq(cols, vals)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.SelectEq(cols, vals)
			if err != nil {
				t.Fatal(err)
			}
			tablesIdentical(t, got, want, fmt.Sprintf("seed %d SelectEq(%v, %s)", seed, cols, vals))
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
// returns exactly that group's rows — on a dense Table, and on the one
// a SegTable of sealed segments plus a tail materializes.
func TestSelectEqSelectsEachGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := make([]value.Tuple, 3000)
	for i := range rows {
		rows[i] = value.Tuple{
			edgeKeys[rng.Intn(len(edgeKeys))],
			value.NewString(fmt.Sprintf("s%d", rng.Intn(3))),
			value.NewInt(int64(rng.Intn(100))),
		}
	}
	tab := newGenTable(Schema{{Name: "k", Kind: value.Null}, {Name: "s", Kind: value.String}, {Name: "v", Kind: value.Int}}, rows)
	st, _ := segTableOf(t, tab, 3)
	for name, rel := range map[string]*Table{"table": tab.Clone(), "materialized segtable": st.Materialize()} {
		for _, cols := range [][]string{{"k"}, {"k", "s"}, {"s", "k"}} {
			label := fmt.Sprintf("%s %v", name, cols)
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

// selectEqAfterMutation probes a dense Table before and after an append
// (which extends its columns in place) and after a SortBy (which
// rebuilds them), each time in the given and in reversed column order,
// against the oracle over the rows the test generated, appended and
// sorted itself.
func selectEqAfterMutation(t *testing.T, rng *rand.Rand, src genTable, label string) {
	t.Helper()
	tab := genTable{src.Clone(), src.rows}
	cols := randomCols(rng, tab, 1+rng.Intn(2))
	probe := func(stage string) {
		ref := tab.oracle()
		var vals []value.Tuple
		for i := 0; i < 6 && tab.NumRows() > 0; i++ {
			row := tab.rows[rng.Intn(tab.NumRows())]
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
	grow := randomTable(rng, 1+rng.Intn(20), len(tab.Schema())).rows
	if tab.NumRows() > 0 {
		// A row repeating an existing key lands in an existing class.
		grow = append(grow, tab.rows[rng.Intn(tab.NumRows())].Clone())
	}
	if err := tab.AppendRows(grow); err != nil {
		t.Fatal(err)
	}
	tab.rows = append(slices.Clone(tab.rows), grow...)
	probe("after append")
	by := randomCols(rng, tab, 1)
	if err := tab.SortBy(by); err != nil {
		t.Fatal(err)
	}
	byIdx, _ := tab.Schema().Indices(by)
	tab.rows = sortedRows(tab.rows, byIdx)
	probe("after SortBy")
}

// tupleOf projects row onto cols.
func tupleOf(tab schemaHolder, row value.Tuple, cols []string) value.Tuple {
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
				checkDistinct(t, kt.rel, kt.ref, cols, label)
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
	gen := newGenTable(sch, ints)
	tab := gen.Table
	st, _ := segTableOf(t, gen, 1)
	aggs := []AggSpec{{Func: Sum, Arg: "v"}, {Func: Avg, Arg: "v"}}
	for _, rel := range []MutableRelation{tab, st} {
		// Query v as a key and as an argument before the append.
		for _, cols := range [][]string{{"g"}, {"v"}} {
			if _, err := rel.GroupBy(cols, aggs); err != nil {
				t.Fatal(err)
			}
		}
		if err := rel.AppendRows([]value.Tuple{{value.NewString("a"), value.NewFloat(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	ref := oracleOf(sch, append(slices.Clone(ints), value.Tuple{value.NewString("a"), value.NewFloat(1)}))
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

// TestCubeColumnarDifferential pins Cube over every kernel target — a
// Table and a SegTable, with its masks fanned across pools of width 1
// and 4 — to the oracle, and each slice of it to the grouping over
// exactly that subset.
func TestCubeColumnarDifferential(t *testing.T) {
	aggs := []AggSpec{{Func: Count}, {Func: Sum, Arg: "c0"}, {Func: Avg, Arg: "c1"}}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := randomTable(rng, rng.Intn(80), 3)
		cols := []string{"c0", "c1", "c2"}
		for _, kt := range kernelTargets(t, tab) {
			label := fmt.Sprintf("seed %d %s", seed, kt.label)
			got, err := Cube(kt.rel, kt.pool, cols, 0, 3, aggs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := kt.ref.Cube(cols, 0, 3, aggs)
			if err != nil {
				t.Fatal(err)
			}
			tablesIdentical(t, got, want, label+" Cube")

			for _, subset := range [][]string{{}, {"c1"}, {"c0", "c2"}, {"c0", "c1", "c2"}} {
				gs, err := CubeSlice(got, cols, subset, aggs)
				if err != nil {
					t.Fatal(err)
				}
				ws, err := kt.ref.GroupBy(subset, aggs)
				if err != nil {
					t.Fatal(err)
				}
				tablesIdentical(t, gs, ws, fmt.Sprintf("%s CubeSlice(%v)", label, subset))
			}
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
		codes, err := BuildSortCodes(tab.Table, cols)
		if err != nil {
			t.Fatal(err)
		}
		rows := tab.rows
		for ci, c := range cols {
			cc := codes.codes[c]
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

// TestColumnarInvalidation pins that queries always see the current
// rows: an Append extends the columns in place, so the appended row is
// visible to the next SelectEq, and a SortBy rebuilds them, so the next
// GroupBy groups in the sorted order.
func TestColumnarInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := randomTable(rng, 50, 2)
	if _, err := tab.GroupBy([]string{"c0"}, []AggSpec{{Func: Count}}); err != nil {
		t.Fatal(err)
	}
	fresh := value.Tuple{value.NewString("fresh"), value.NewInt(99)}
	tab.MustAppend(fresh)
	tab.rows = append(slices.Clone(tab.rows), fresh)
	got, err := tab.SelectEq([]string{"c0"}, value.Tuple{value.NewString("fresh")})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 1 {
		t.Fatalf("appended row not visible through SelectEq: got %d rows", got.NumRows())
	}

	if err := tab.SortBy([]string{"c1"}); err != nil {
		t.Fatal(err)
	}
	tab.rows = sortedRows(tab.rows, []int{1})
	g1, err := tab.GroupBy([]string{"c0"}, []AggSpec{{Func: Count}})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := tab.oracle().GroupBy([]string{"c0"}, []AggSpec{{Func: Count}})
	if err != nil {
		t.Fatal(err)
	}
	tablesIdentical(t, g1, g2, "post-SortBy GroupBy")
}

// TestColumnarConcurrent hammers one table from many goroutines (run
// under -race by make check): concurrent readers — including the first
// RankCodes, which sorts a column's dictionary — must be safe and every
// result identical to the precomputed reference.
func TestColumnarConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tab := randomTable(rng, 300, 4)
	ref := tab.oracle()
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
				if _, err := BuildSortCodes(tab.Table, []string{"c0", "c3"}); err != nil {
					errs <- err.Error()
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
// fuzz-shaped table, and GroupBy without aggregates (the distinct
// projection) on every kernel target, through the kernels and the
// oracle and requires identical output.
func FuzzColumnarKernels(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(2))
	f.Add(int64(2), uint8(0), uint8(1))
	f.Add(int64(3), uint8(150), uint8(3))
	f.Add(int64(-9), uint8(63), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, n, width uint8) {
		rng := rand.New(rand.NewSource(seed))
		tab := randomTable(rng, int(n), 1+int(width%4))
		ref := tab.oracle()
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
			q = value.Tuple{tab.rows[rng.Intn(tab.NumRows())][ci]}
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
		for _, kt := range kernelTargets(t, tab) {
			checkDistinct(t, kt.rel, kt.ref, cols, "fuzz "+kt.label)
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
	for _, tab := range []genTable{full, newGenTable(full.Schema(), nil)} {
		for _, cols := range [][]string{nil, {"c0"}} {
			vals := make(value.Tuple, len(cols))
			for i := range vals {
				vals[i] = value.NewString("s1")
			}
			got, err := tab.SelectEq(cols, vals)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tab.oracle().SelectEq(cols, vals)
			if err != nil {
				t.Fatal(err)
			}
			tablesIdentical(t, got, want, fmt.Sprintf("%d rows SelectEq(%v)", tab.NumRows(), cols))
		}
		for _, kt := range kernelTargets(t, tab) {
			label := fmt.Sprintf("%d rows %s", tab.NumRows(), kt.label)
			for _, cols := range [][]string{nil, {"c0"}} {
				checkDistinct(t, kt.rel, kt.ref, cols, label)
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
