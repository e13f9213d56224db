package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"cape/internal/value"
)

// rollUpRow is a row of rollUpSchema: three key columns of randomValue —
// NULL, NaN, Int(1) next to Float(1.0) of one class, strings — the
// first also drawing ±0 and NaN; an Int-or-NULL column "iv" whose sums
// roll up, and a Float column "hf" whose sums must scan.
func rollUpRow(rng *rand.Rand) value.Tuple {
	row := edgeRow(rng, 5)
	row[3] = value.NewNull()
	if rng.Intn(5) > 0 {
		row[3] = value.NewInt(int64(rng.Intn(1000)) - 300 + int64(rng.Intn(2))<<52)
	}
	return row
}

var rollUpSchema = Schema{
	{Name: "c0", Kind: value.Null}, {Name: "c1", Kind: value.Null}, {Name: "c2", Kind: value.Null},
	{Name: "iv", Kind: value.Int}, {Name: "hf", Kind: value.Float},
}

// rollUpTargets presents rows as a dense Table and as a SegTable of
// three sealed segments plus a tail.
func rollUpTargets(t *testing.T, rows []value.Tuple) []kernelTarget {
	t.Helper()
	tab := newGenTable(rollUpSchema, rows)
	st, _ := segTableOf(t, tab, 3)
	return []kernelTarget{{label: "table", rel: tab.Table}, {label: "segtable", rel: st}}
}

// TestRollUpMatchesScan is the roll-up's differential: for every parent
// grouping over two or three key columns and every child one column
// narrower, rolling the parent's result up equals grouping the relation
// by the child — cells, kinds, dictionary codes and lookups, and for a
// retained group-by each state bit for bit. Aggregates whose states do
// not merge exactly (a Sum over a Float column, Min, any retained Sum)
// decline, leaving the caller to scan. Rolled-up retained states then
// fold appended rows exactly as a fresh GroupByAccums does.
func TestRollUpMatchesScan(t *testing.T) {
	keys := []string{"c0", "c1", "c2"}
	var parents [][]string
	for mask := 1; mask < 8; mask++ {
		var p []string
		for i, k := range keys {
			if mask&(1<<i) != 0 {
				p = append(p, k)
			}
		}
		if len(p) >= 2 {
			parents = append(parents, p)
		}
	}
	count, countArg := AggSpec{Func: Count}, AggSpec{Func: Count, Arg: "c1"}
	sumIV, sumHF := AggSpec{Func: Sum, Arg: "iv"}, AggSpec{Func: Sum, Arg: "hf"}
	minC2 := AggSpec{Func: Min, Arg: "c2"}
	parentAggs := []AggSpec{count, countArg, sumIV, sumHF, minC2}
	retainedAggs := []AggSpec{count, countArg, sumIV}
	exact := [][]AggSpec{{count}, {sumIV, count}, {countArg, sumIV}}
	declined := [][]AggSpec{{count, sumHF}, {minC2}}

	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(300)
		rows := make([]value.Tuple, n)
		for i := range rows {
			rows[i] = rollUpRow(rng)
		}
		batches := make([][]value.Tuple, 3)
		for bi := range batches {
			for r := rng.Intn(40); r >= 0; r-- {
				batches[bi] = append(batches[bi], rollUpRow(rng))
			}
		}
		for _, kt := range rollUpTargets(t, rows) {
			rel := kt.rel.(MutableRelation)
			type rolled struct {
				label string
				child []string
				aggs  []AggSpec
				rg    *RetainedGroupBy
			}
			var held []rolled
			for _, p := range parents {
				grouped, err := rel.GroupBy(p, parentAggs)
				if err != nil {
					t.Fatal(err)
				}
				retained, err := rel.GroupByAccums(p, retainedAggs)
				if err != nil {
					t.Fatal(err)
				}
				for drop := range p {
					child := append(append([]string(nil), p[:drop]...), p[drop+1:]...)
					label := fmt.Sprintf("seed %d %s %v → %v", seed, kt.label, p, child)
					for _, aggs := range exact {
						got, ok := grouped.RollUp(child, aggs)
						if !ok {
							t.Fatalf("%s %v: roll-up declined", label, aggs)
						}
						want, err := rel.GroupBy(child, aggs)
						if err != nil {
							t.Fatal(err)
						}
						requireSameBytes(t, fmt.Sprintf("%s %v", label, aggs), got, want)
					}
					for _, aggs := range declined {
						if _, ok := grouped.RollUp(child, aggs); ok {
							t.Fatalf("%s %v: rolled up states that do not merge exactly", label, aggs)
						}
					}
					if _, ok := retained.RollUp(child, []AggSpec{count, sumIV}); ok {
						t.Fatalf("%s: rolled up a retained Sum", label)
					}
					aggs := []AggSpec{countArg, count}
					rg, ok := retained.RollUp(child, aggs)
					if !ok {
						t.Fatalf("%s: retained roll-up declined", label)
					}
					requireRetainedEqual(t, label+" retained", rel, child, aggs, rg)
					held = append(held, rolled{label, child, aggs, rg})
				}
			}
			for bi, batch := range batches {
				if err := rel.AppendRows(batch); err != nil {
					t.Fatal(err)
				}
				for _, h := range held {
					if err := h.rg.CatchUp(rel); err != nil {
						t.Fatal(err)
					}
					requireRetainedEqual(t, fmt.Sprintf("%s after batch %d", h.label, bi), rel, h.child, h.aggs, h.rg)
				}
			}
		}
	}
}

// requireRetainedEqual asserts got holds what a fresh GroupByAccums of
// rel does: the same key table, states and published table.
// TestRollUpMergeable: counts and integer sums roll up; a Sum over a
// part whose argument holds floats, Avg, Min and Max decline.
func TestRollUpMergeable(t *testing.T) {
	intCol := compressCodes([]int32{0, 1, 0}, intDict(2))
	fltCol := compressCodes([]int32{0, 1, 0}, []value.V{value.NewFloat(0.5), value.NewFloat(1.5)})
	cases := []struct {
		name string
		f    AggFunc
		cc   *CompressedCol
		want bool
	}{
		{"count-star", Count, nil, true},
		{"count-float", Count, fltCol, true},
		{"sum-int", Sum, intCol, true},
		{"sum-float", Sum, fltCol, false},
		{"avg-int", Avg, intCol, false},
		{"min-int", Min, intCol, false},
		{"max-float", Max, fltCol, false},
	}
	for _, c := range cases {
		parts := []*compPart{{n: 3, seg: &Segment{}, aggs: []*CompressedCol{c.cc}}}
		aCols := []aggCol{{spec: AggSpec{Func: c.f, Arg: "a"}}}
		if got := rollUpMergeable(aCols, sumNeedsFFor(parts, aCols, false)); got != c.want {
			t.Errorf("%s: rollUpMergeable = %v, want %v", c.name, got, c.want)
		}
	}
}

func requireRetainedEqual(t *testing.T, label string, rel MutableRelation, cols []string, aggs []AggSpec, got *RetainedGroupBy) {
	t.Helper()
	want, err := rel.GroupByAccums(cols, aggs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBytes(t, label+": keys", got.Keys(), want.Keys())
	for gi := 0; gi < want.Keys().NumRows(); gi++ {
		for ai := range aggs {
			if g, w := got.states.state(gi, ai), want.states.state(gi, ai); !stateIdentical(g, w) {
				t.Fatalf("%s: group %d %s: state %+v, want %+v", label, gi, aggs[ai], g, w)
			}
		}
	}
	requireSameBytes(t, label+": table", got.Table(), want.Table())
	if got.synced != want.synced || got.epoch != want.epoch {
		t.Fatalf("%s: synced %d at epoch %d, want %d at %d", label, got.synced, got.epoch, want.synced, want.epoch)
	}
}
