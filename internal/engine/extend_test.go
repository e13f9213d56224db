package engine

import (
	"math"
	"reflect"
	"testing"

	"cape/internal/value"
)

// extendRows are the initial rows of extendTable, whose second column
// is untyped so append batches can introduce new kinds (first Int,
// NULL, NaN).
func extendRows() []value.Tuple {
	return []value.Tuple{
		{value.NewString("x"), value.NewFloat(1.5), value.NewInt(10)},
		{value.NewString("y"), value.NewFloat(2.5), value.NewInt(20)},
		{value.NewString("x"), value.NewNull(), value.NewInt(30)},
		{value.NewString("z"), value.NewString("s"), value.NewInt(40)},
	}
}

var extendSchema = Schema{
	{Name: "a", Kind: value.String},
	{Name: "b", Kind: value.Null}, // untyped
	{Name: "c", Kind: value.Int},
}

// extendTable loads extendRows in one batch.
func extendTable(t *testing.T) *Table {
	t.Helper()
	tab := NewTable(extendSchema)
	if err := tab.AppendRows(extendRows()); err != nil {
		t.Fatal(err)
	}
	return tab
}

// requireColIdentical compares every field of a column grown by appends
// against the same column loaded in one batch, including the unexported
// null bitmap, lookup map, float flag, and rank table.
func requireColIdentical(t *testing.T, label string, got, want *Col) {
	t.Helper()
	if !reflect.DeepEqual(got.Kinds, want.Kinds) {
		t.Errorf("%s: Kinds %v vs %v", label, got.Kinds, want.Kinds)
	}
	if !reflect.DeepEqual(got.Num, want.Num) {
		t.Errorf("%s: Num %v vs %v", label, got.Num, want.Num)
	}
	// Bit-level float equality: DeepEqual treats NaN as unequal to itself.
	if len(got.F64) != len(want.F64) {
		t.Errorf("%s: F64 len %d vs %d", label, len(got.F64), len(want.F64))
	} else {
		for i := range got.F64 {
			if math.Float64bits(got.F64[i]) != math.Float64bits(want.F64[i]) {
				t.Errorf("%s: F64[%d] %v vs %v", label, i, got.F64[i], want.F64[i])
			}
		}
	}
	if !reflect.DeepEqual(got.I64, want.I64) {
		t.Errorf("%s: I64 %v vs %v", label, got.I64, want.I64)
	}
	if !reflect.DeepEqual(got.Codes, want.Codes) {
		t.Errorf("%s: Codes %v vs %v", label, got.Codes, want.Codes)
	}
	if len(got.Dict) != len(want.Dict) {
		t.Errorf("%s: Dict len %d vs %d", label, len(got.Dict), len(want.Dict))
	} else {
		for i := range got.Dict {
			gk := got.Dict[i].AppendKey(nil)
			wk := want.Dict[i].AppendKey(nil)
			if string(gk) != string(wk) {
				t.Errorf("%s: Dict[%d] %v vs %v", label, i, got.Dict[i], want.Dict[i])
			}
		}
	}
	if !reflect.DeepEqual(got.lookup, want.lookup) {
		t.Errorf("%s: lookup %v vs %v", label, got.lookup, want.lookup)
	}
	if !reflect.DeepEqual(got.nulls, want.nulls) {
		t.Errorf("%s: nulls %v vs %v", label, got.nulls, want.nulls)
	}
	if got.nullCount != want.nullCount {
		t.Errorf("%s: nullCount %d vs %d", label, got.nullCount, want.nullCount)
	}
	if got.hasFloat != want.hasFloat {
		t.Errorf("%s: hasFloat %v vs %v", label, got.hasFloat, want.hasFloat)
	}
	gotRanks, gn := got.RankCodes()
	wantRanks, wn := want.RankCodes()
	if !reflect.DeepEqual(gotRanks, wantRanks) || gn != wn {
		t.Errorf("%s: ranks %v (%d) vs %v (%d)", label, gotRanks, gn, wantRanks, wn)
	}
}

// TestColumnarExtendIdenticalToRebuild pins the core extension contract:
// after an append — a batch, or one row at a time — every column is
// field-for-field identical to loading all the rows in one batch: new
// dictionary codes in first-appearance order, lazily allocated I64,
// grown null bitmaps, ranks re-sorted after the dictionary grew.
func TestColumnarExtendIdenticalToRebuild(t *testing.T) {
	batches := [][]value.Tuple{
		// New dictionary value in a, NULL in b.
		{
			{value.NewString("w"), value.NewNull(), value.NewInt(50)},
			{value.NewString("x"), value.NewFloat(3.5), value.NewInt(60)},
		},
		// First Int in b: the I64 buffer must materialize lazily with
		// zero backfill, exactly as a one-batch load allocates it.
		{
			{value.NewString("y"), value.NewInt(7), value.NewInt(70)},
		},
		// Repeat keys only: dictionary must not grow, ranks unchanged.
		{
			{value.NewString("x"), value.NewInt(7), value.NewInt(10)},
		},
	}

	batched := extendTable(t)
	single := extendTable(t)
	for ci := range batched.Schema() {
		batched.Col(ci).RankCodes() // ranks exist before the appends
	}
	all := extendRows()
	for bi, batch := range batches {
		if err := batched.AppendRows(batch); err != nil {
			t.Fatal(err)
		}
		for _, row := range batch {
			single.MustAppend(row)
		}
		all = append(all, batch...)
		want := newGenTable(extendSchema, all)
		for ci, sc := range extendSchema {
			label := sc.Name + " batch " + string(rune('0'+bi))
			requireColIdentical(t, label+" batched", batched.Col(ci), want.Col(ci))
			requireColIdentical(t, label+" row by row", single.Col(ci), want.Col(ci))
		}
	}
}

// TestColumnarExtendNaN pins NaN in the rank order: a NaN appended to a
// column whose ranks exist keeps the ranks exactly like a one-batch
// load, ranked above every number and below every string; a second NaN
// with another payload joins the first one's code.
func TestColumnarExtendNaN(t *testing.T) {
	tab := extendTable(t)
	if _, n := tab.Col(1).RankCodes(); n != 4 {
		t.Fatalf("precondition: column b should rank 4 values before NaN, got %d", n)
	}
	all := extendRows()
	for _, bits := range []uint64{math.Float64bits(math.NaN()), 0x7ff8000000000000} {
		row := value.Tuple{value.NewString("x"), value.NewFloat(math.Float64frombits(bits)), value.NewInt(80)}
		if err := tab.Append(row); err != nil {
			t.Fatal(err)
		}
		all = append(all, row)
	}
	got := tab.Col(1)
	requireColIdentical(t, "b after NaN", got, newGenTable(extendSchema, all).Col(1))
	n := len(got.Codes)
	nan := got.Codes[n-1]
	if got.Codes[n-2] != nan {
		t.Fatalf("NaN payloads got codes %d and %d, want one", got.Codes[n-2], nan)
	}
	// b holds 1.5, 2.5, NULL, "s", NaN: NaN ranks fourth.
	ranks, nRanks := got.RankCodes()
	if nRanks != 5 || ranks[n-1] != 3 {
		t.Errorf("NaN tail must keep ranks with NaN between numbers and strings: ranks=%v, NaN code %d", ranks, nan)
	}
}

// TestEpochSemantics pins the epoch counter: one tick per Append call,
// one per non-empty AppendRows batch, one per SortBy; empty batches are
// no-ops; Clone carries the source's epoch.
func TestEpochSemantics(t *testing.T) {
	tab := extendTable(t) // one AppendRows batch
	if e := tab.Epoch(); e != 1 {
		t.Fatalf("epoch after initial batch = %d, want 1", e)
	}
	tab.MustAppend(value.Tuple{value.NewString("q"), value.NewNull(), value.NewInt(1)})
	if e := tab.Epoch(); e != 2 {
		t.Fatalf("epoch after Append = %d, want 2", e)
	}
	if err := tab.AppendRows(nil); err != nil {
		t.Fatal(err)
	}
	if e := tab.Epoch(); e != 2 {
		t.Fatalf("epoch after empty AppendRows = %d, want 2 (no-op)", e)
	}
	if err := tab.AppendRows([]value.Tuple{
		{value.NewString("r"), value.NewNull(), value.NewInt(2)},
		{value.NewString("s"), value.NewNull(), value.NewInt(3)},
	}); err != nil {
		t.Fatal(err)
	}
	if e := tab.Epoch(); e != 3 {
		t.Fatalf("epoch after batch AppendRows = %d, want 3", e)
	}
	clone := tab.Clone()
	if clone.Epoch() != tab.Epoch() {
		t.Fatalf("clone epoch = %d, want %d", clone.Epoch(), tab.Epoch())
	}
	if err := tab.SortBy([]string{"c"}); err != nil {
		t.Fatal(err)
	}
	if e := tab.Epoch(); e != 4 {
		t.Fatalf("epoch after SortBy = %d, want 4", e)
	}
	if clone.Epoch() != 3 {
		t.Fatalf("clone epoch changed with source: %d", clone.Epoch())
	}
}

// TestAppendRowsValidation pins atomicity: a batch with one bad row is
// rejected entirely, leaving rows, derived caches, and epoch untouched.
func TestAppendRowsValidation(t *testing.T) {
	tab := extendTable(t)
	before := tab.Epoch()
	n := tab.NumRows()
	err := tab.AppendRows([]value.Tuple{
		{value.NewString("ok"), value.NewNull(), value.NewInt(1)},
		{value.NewInt(9), value.NewNull(), value.NewInt(2)}, // kind mismatch in a
	})
	if err == nil {
		t.Fatal("batch with invalid row must be rejected")
	}
	if tab.NumRows() != n || tab.Epoch() != before {
		t.Fatalf("rejected batch mutated table: rows %d→%d epoch %d→%d", n, tab.NumRows(), before, tab.Epoch())
	}
}
