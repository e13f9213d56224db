package pattern

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cape/internal/engine"
	"cape/internal/value"
)

// sortedGroupedTable builds a small grouped-shaped table (partition
// columns f0/f1, predictor v, aggregate column count(*)) whose rows are
// already in fragment order, so the identity order (perm == nil) is a
// valid scan order. It returns the generated rows too.
func sortedGroupedTable(rng *rand.Rand, n int) (*engine.Table, []value.Tuple) {
	tab := engine.NewTable(engine.Schema{
		{Name: "f0", Kind: value.String},
		{Name: "f1", Kind: value.Int},
		{Name: "v", Kind: value.Int},
		{Name: "count(*)", Kind: value.Int},
	})
	var rows []value.Tuple
	f0, f1 := 0, 0
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			f1++
			if rng.Intn(3) == 0 {
				f0++
			}
		}
		rows = append(rows, value.Tuple{
			value.NewString(fmt.Sprintf("g%d", f0)),
			value.NewInt(int64(f1)),
			value.NewInt(int64(i % 7)),
			value.NewInt(int64(1 + rng.Intn(5))),
		})
	}
	if err := tab.AppendRows(rows); err != nil {
		panic(err)
	}
	return tab, rows
}

// TestFragmentEndsTiers pins the dictionary-code boundary scan of a
// scan order to the definition: a fragment ends where some F value of
// the generated rows changes under value.Equal.
func TestFragmentEndsTiers(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab, rows := sortedGroupedTable(rng, rng.Intn(120))
		n := tab.NumRows()
		for _, f := range [][]string{{"f0"}, {"f1"}, {"f0", "f1"}, nil} {
			fIdx, err := tab.Schema().Indices(f)
			if err != nil {
				t.Fatal(err)
			}
			var want []int32
			for r := 1; r < n; r++ {
				for _, ci := range fIdx {
					if !value.Equal(rows[r-1][ci], rows[r][ci]) {
						want = append(want, int32(r))
						break
					}
				}
			}
			if n > 0 {
				want = append(want, int32(n))
			}

			var fCodes [][]int32
			for _, ci := range fIdx {
				fCodes = append(fCodes, tab.Col(ci).Codes)
			}
			perm := make([]int32, n)
			for i := range perm {
				perm[i] = int32(i)
			}
			if got := FragmentEnds(nil, fCodes, perm); !reflect.DeepEqual(append([]int32(nil), got...), want) {
				t.Fatalf("seed %d f=%v: code scan %v, want %v", seed, f, got, want)
			}
		}
	}
}
