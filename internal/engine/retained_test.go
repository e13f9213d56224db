package engine

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"cape/internal/value"
)

// bitsIdentical reports whether two values have the same kind and the
// same payload, float bits included (NaN payloads and the sign of zero
// count).
func bitsIdentical(a, b value.V) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case value.Float:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case value.Int:
		return a.Int() == b.Int()
	case value.String:
		return a.Str() == b.Str()
	}
	return true
}

// requireSameBytes asserts two tables hold the same columns byte for
// byte: every per-row buffer, the dictionary codes, the dictionary and
// its lookup, and the null bitmap.
func requireSameBytes(t *testing.T, label string, got, want *Table) {
	t.Helper()
	if got.n != want.n || !slices.Equal(got.schema.Names(), want.schema.Names()) {
		t.Fatalf("%s: %d rows %v, want %d rows %v", label, got.n, got.schema.Names(), want.n, want.schema.Names())
	}
	for ci, w := range want.cols {
		g := got.cols[ci]
		same := slices.Equal(g.Kinds, w.Kinds) && slices.Equal(g.Num, w.Num) &&
			slices.Equal(g.I64, w.I64) && slices.Equal(g.Codes, w.Codes) &&
			slices.Equal(g.nulls, w.nulls) && g.nullCount == w.nullCount && g.hasFloat == w.hasFloat &&
			maps.Equal(g.lookup, w.lookup) && len(g.Dict) == len(w.Dict) && len(g.F64) == len(w.F64)
		for i := 0; same && i < len(w.F64); i++ {
			same = math.Float64bits(g.F64[i]) == math.Float64bits(w.F64[i])
		}
		for i := 0; same && i < len(w.Dict); i++ {
			same = bitsIdentical(g.Dict[i], w.Dict[i])
		}
		if !same {
			t.Fatalf("%s: column %q differs\ngot:\n%swant:\n%s", label, want.schema[ci].Name, got, want)
		}
	}
}

// deepCopy returns a table that shares no memory with t.
func deepCopy(t *Table) *Table {
	out := &Table{schema: t.schema.Clone(), cols: make([]*Col, len(t.cols)), n: t.n}
	for ci, c := range t.cols {
		out.cols[ci] = &Col{
			Kinds: slices.Clone(c.Kinds), Num: slices.Clone(c.Num), F64: slices.Clone(c.F64),
			I64: slices.Clone(c.I64), Codes: slices.Clone(c.Codes), Dict: slices.Clone(c.Dict),
			lookup: maps.Clone(c.lookup), nulls: slices.Clone(c.nulls),
			nullCount: c.nullCount, hasFloat: c.hasFloat,
		}
	}
	return out
}

// edgeRow is a random row of kernelTable's shape whose first column
// also draws +0, −0 and NaN, so groups keyed by it see every float class
// the canonical key merges.
func edgeRow(rng *rand.Rand, width int) value.Tuple {
	row := make(value.Tuple, width)
	for c := range row {
		row[c] = randomValue(rng)
	}
	switch rng.Intn(4) {
	case 0:
		row[0] = value.NewFloat(math.Copysign(0, -1))
	case 1:
		row[0] = value.NewFloat(0)
	case 2:
		row[0] = value.NewFloat(math.NaN())
	}
	row[width-1] = value.NewFloat(rng.Float64() * 1e6) // "hf"
	return row
}

// TestRetainedGroupByFoldsAppends is the retained group-by's contract on
// every kernel target: after each appended batch — new groups, float
// rows landing in Int-only sums, ±0 and NaN keys, empty batches, and on
// a SegTable a Compact between batches — CatchUp folds exactly the new
// rows, and the published table is the cold GroupBy's byte for byte.
// A table published earlier stays byte-unchanged, and readers may keep
// reading it while the state folds (run under -race).
func TestRetainedGroupByFoldsAppends(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := kernelTable(rng, 40+rng.Intn(200), 2+rng.Intn(3))
		width := len(src.Schema())
		batches := make([][]value.Tuple, 6)
		for bi := range batches {
			if bi == 2 {
				continue // an empty append
			}
			for r := rng.Intn(30); r >= 0; r-- {
				batches[bi] = append(batches[bi], edgeRow(rng, width))
			}
		}
		cols := randomCols(rng, src, 1+rng.Intn(2))
		aggs := append(randomAggs(rng, src), AggSpec{Func: Sum, Arg: "hf"})
		for _, kt := range kernelTargets(t, src) {
			rel := kt.rel.(MutableRelation)
			label := fmt.Sprintf("seed %d %s %v %v", seed, kt.label, cols, aggs)
			rg, err := rel.GroupByAccums(cols, aggs)
			if err != nil {
				t.Fatal(err)
			}
			for bi, batch := range batches {
				held := rg.Table()
				heldCopy := deepCopy(held)
				var wg sync.WaitGroup
				wg.Add(1)
				go func() { // a reader of the published table, racing the fold
					defer wg.Done()
					for r := 0; r < held.NumRows(); r++ {
						for ci := range held.cols {
							v := held.Col(ci).Value(r)
							if _, ok := held.Col(ci).CodeOf(v); !ok {
								t.Errorf("%s: published value %s has no code", label, v)
							}
						}
					}
				}()
				if err := rel.AppendRows(batch); err != nil {
					t.Fatal(err)
				}
				if st, ok := rel.(*SegTable); ok && bi == 3 {
					if err := st.Compact(); err != nil {
						t.Fatal(err)
					}
				}
				before := rg.synced
				if err := rg.CatchUp(rel); err != nil {
					t.Fatal(err)
				}
				wg.Wait()
				if rg.synced != before+len(batch) || rg.synced != rel.NumRows() {
					t.Fatalf("%s batch %d: synced %d → %d over %d appended rows", label, bi, before, rg.synced, len(batch))
				}
				want, err := rel.GroupBy(cols, aggs)
				if err != nil {
					t.Fatal(err)
				}
				requireSameBytes(t, fmt.Sprintf("%s batch %d", label, bi), rg.Table(), want)
				requireSameBytes(t, fmt.Sprintf("%s batch %d: held table", label, bi), held, heldCopy)
			}
		}
	}
}

// TestRetainedGroupByRebuildsAfterSort: a SortBy reorders rows already
// folded, so CatchUp must regroup rather than fold — the group order and
// every float sum follow the new row order.
func TestRetainedGroupByRebuildsAfterSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := kernelTable(rng, 300, 3)
	tab := src.Clone()
	aggs := []AggSpec{{Func: Count}, {Func: Sum, Arg: "hf"}}
	rg, err := tab.GroupByAccums([]string{"c0"}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	held := rg.Table()
	heldCopy := deepCopy(held)
	if err := tab.SortBy([]string{"hf"}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AppendRows([]value.Tuple{edgeRow(rng, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := rg.CatchUp(tab); err != nil {
		t.Fatal(err)
	}
	want, err := tab.GroupBy([]string{"c0"}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBytes(t, "after SortBy", rg.Table(), want)
	requireSameBytes(t, "held table", held, heldCopy)
}
