package pattern

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cape/internal/engine"
	"cape/internal/regress"
	"cape/internal/value"
)

// sortedGroupedTable builds a small grouped-shaped table (partition
// columns f0/f1, predictor v, aggregate column count(*)) whose rows are
// already in fragment order, so the identity order (perm == nil) is a
// valid scan order.
func sortedGroupedTable(rng *rand.Rand, n int) *engine.Table {
	tab := engine.NewTable(engine.Schema{
		{Name: "f0", Kind: value.String},
		{Name: "f1", Kind: value.Int},
		{Name: "v", Kind: value.Int},
		{Name: "count(*)", Kind: value.Int},
	})
	f0, f1 := 0, 0
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			f1++
			if rng.Intn(3) == 0 {
				f0++
			}
		}
		tab.MustAppend(value.Tuple{
			value.NewString(fmt.Sprintf("g%d", f0)),
			value.NewInt(int64(f1)),
			value.NewInt(int64(i % 7)),
			value.NewInt(int64(1 + rng.Intn(5))),
		})
	}
	return tab
}

// TestFragmentEndsTiers pins the boundary tiers — dense sort codes in
// identity and permuted order, boxed comparison — to one another on the
// same table.
func TestFragmentEndsTiers(t *testing.T) {
	aggs := []engine.AggSpec{{Func: engine.Count}}
	th := Thresholds{Theta: 0.1, LocalSupport: 1, Lambda: 0.1, GlobalSupport: 1}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := sortedGroupedTable(rng, rng.Intn(120))
		n := tab.NumRows()
		for _, f := range [][]string{{"f0"}, {"f1"}, {"f0", "f1"}, nil} {
			fIdx, err := tab.Schema().Indices(f)
			if err != nil {
				t.Fatal(err)
			}

			sf, err := NewSharedFitter(tab, aggs, []regress.ModelType{regress.Const}, th)
			if err != nil {
				t.Fatal(err)
			}
			boxed := append([]int32(nil), sf.fragmentEnds(fIdx, nil, nil, n)...)

			// Dense sort codes, identity order.
			codes, err := engine.BuildSortCodes(tab, []string{"f0", "f1"})
			if err != nil {
				t.Fatal(err)
			}
			var fCodes [][]int32
			for _, a := range f {
				fCodes = append(fCodes, codes.Codes(a))
			}
			if len(f) > 0 {
				coded := sf.fragmentEnds(fIdx, fCodes, nil, n)
				if !reflect.DeepEqual(boxed, coded) {
					t.Fatalf("seed %d f=%v: code tier %v != boxed tier %v", seed, f, coded, boxed)
				}
				// Identity permutation through the perm tier.
				perm := make([]int32, n)
				for i := range perm {
					perm[i] = int32(i)
				}
				permEnds := sf.fragmentEnds(fIdx, fCodes, perm, n)
				if !reflect.DeepEqual(boxed, permEnds) {
					t.Fatalf("seed %d f=%v: perm tier %v != boxed tier %v", seed, f, permEnds, boxed)
				}
			}
		}
	}
}
