package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cape/internal/value"
)

// stateIdentical compares two aggregate states field by field, float
// sums by their bits: a state that merely yields the same result today
// can still diverge once a later row lands.
func stateIdentical(x, y aggState) bool {
	return x.count == y.count && x.sumI == y.sumI && x.anyFloat == y.anyFloat && x.seen == y.seen &&
		math.Float64bits(x.sumF) == math.Float64bits(y.sumF) &&
		(!x.seen || valueIdentical(x.ext, y.ext))
}

// TestGroupByAccumsMatchesRowFold pins GroupByAccums on every kernel
// target to its contract: the key table is GroupBy's key columns, and
// each group's aggregate states equal a row-order fold of the group's
// rows, bit for bit — including the float mirror of Int-only
// sums whose partial sums pass 2⁵³ (column "big"), which GroupBy itself
// may leave unfilled.
func TestGroupByAccumsMatchesRowFold(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := kernelTable(rng, rng.Intn(400), 2+rng.Intn(3))
		sch := append(src.Schema().Clone(), Column{Name: "big", Kind: value.Int})
		rows := make([]value.Tuple, len(src.rows))
		for i, r := range src.rows {
			rows[i] = append(r.Clone(), value.NewInt(1<<52+int64(rng.Intn(1000))))
		}
		tab := newGenTable(sch, rows)
		names := tab.Schema().Names()
		for trial := 0; trial < 4; trial++ {
			cols := randomCols(rng, tab, 1+rng.Intn(2))
			aggs := append(randomAggs(rng, tab), AggSpec{Func: Sum, Arg: "big"}, AggSpec{Func: Max, Arg: names[0]})
			if trial == 0 {
				aggs = []AggSpec{{Func: Count}, {Func: Sum, Arg: "big"}} // no float mirror under GroupBy
			}
			for _, kt := range kernelTargets(t, tab) {
				label := fmt.Sprintf("seed %d %s GroupByAccums(%v, %v)", seed, kt.label, cols, aggs)
				rg, err := kt.rel.(MutableRelation).GroupByAccums(cols, aggs)
				if err != nil {
					t.Fatal(err)
				}
				keys := rg.Keys()
				grouped, err := kt.rel.GroupBy(cols, aggs)
				if err != nil {
					t.Fatal(err)
				}
				keyCols := &Table{schema: grouped.schema[:len(cols)], cols: grouped.cols[:len(cols)], n: grouped.n}
				tablesIdentical(t, keys, keyCols, label)

				// The reference: fold the logical rows one by one.
				gIdx, _ := sch.Indices(cols)
				var want []aggState
				ids := map[string]int{}
				for _, row := range kt.ref.rows {
					var key []byte
					for _, ci := range gIdx {
						key = row[ci].AppendKey(key)
					}
					g, ok := ids[string(key)]
					if !ok {
						g = len(ids)
						ids[string(key)] = g
						want = append(want, make([]aggState, len(aggs))...)
					}
					for ai, a := range aggs {
						var arg value.V
						if !a.IsStar() {
							arg = row[sch.Index(a.Arg)]
						}
						want[g*len(aggs)+ai].add(arg, a.Func, a.IsStar())
					}
				}
				if got := rg.keys.NumRows() * len(aggs); got != len(want) {
					t.Fatalf("%s: %d states, want %d", label, got, len(want))
				}
				for i := range want {
					if st := rg.states.state(i/len(aggs), i%len(aggs)); !stateIdentical(st, want[i]) {
						t.Fatalf("%s: group %d %s: state %+v, want %+v",
							label, i/len(aggs), aggs[i%len(aggs)], st, want[i])
					}
					if got, w := rg.Result(i/len(aggs), i%len(aggs)), grouped.Row(i / len(aggs))[len(cols)+i%len(aggs)]; !valueIdentical(got, w) {
						t.Fatalf("%s: group %d %s: Result %s, GroupBy cell %s", label, i/len(aggs), aggs[i%len(aggs)], got, w)
					}
				}
			}
		}
	}
}
