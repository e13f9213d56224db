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

// TestFitCountsMatchesFit: on a Lin-free fragment whose observations are
// counts, FitCounts over the statistics Fit accumulated — in any order,
// since integer sums are exact — returns Fit's support flags, local
// models and Frag, bit for bit; a Frag handed in is shared, not copied.
func TestFitCountsMatchesFit(t *testing.T) {
	held := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab, _ := sortedGroupedTable(rng, 1+rng.Intn(60))
		fIdx, vIdx := []int{0, 1}, []int{2}
		y := Obs{F: tab.Col(3).F64, OK: tab.Col(3).Num}
		models := []regress.ModelType{regress.Const, regress.Lin}
		if seed%2 == 0 {
			models = models[:1]
		}
		th := Thresholds{Theta: 0.05, LocalSupport: 3, Lambda: 0.1, GlobalSupport: 1}
		walk, stats := NewFragFit(1, models, th), NewFragFit(1, models, th)
		perm := make([]int32, tab.NumRows())
		for i := range perm {
			perm[i] = int32(i)
		}
		fCodes := [][]int32{tab.Col(0).Codes, tab.Col(1).Codes}
		lo := int32(0)
		for _, hi := range FragmentEnds(nil, fCodes, perm) {
			rows := perm[lo:hi]
			lo = hi
			walk.Fit(tab, fIdx, vIdx, []Obs{y}, rows, nil, nil)
			if len(models) == 2 {
				// v is numeric here, so Lin is possible: FitCounts does
				// not apply.
				if walk.LinFree {
					t.Fatalf("seed %d: numeric predictors reported Lin-free", seed)
				}
				continue
			}
			if !walk.LinFree {
				t.Fatalf("seed %d: no Lin model, yet not Lin-free", seed)
			}
			var s regress.ConstStats
			for i := len(rows) - 1; i >= 0; i-- { // reverse order
				s.Add(y.F[rows[i]])
			}
			stats.FitCounts(tab, fIdx, s, rows[0], nil)
			if !reflect.DeepEqual(walk.Supported, stats.Supported) || !reflect.DeepEqual(walk.Locals, stats.Locals) ||
				!reflect.DeepEqual(walk.Frag, stats.Frag) {
				t.Fatalf("seed %d: FitCounts %v %v %v, Fit %v %v %v", seed,
					stats.Supported, stats.Locals, stats.Frag, walk.Supported, walk.Locals, walk.Frag)
			}
			if lm := stats.Locals[0]; lm != nil {
				held++
				prev := lm.Frag
				stats.FitCounts(tab, fIdx, s, rows[0], prev)
				if &stats.Locals[0].Frag[0] != &prev[0] {
					t.Fatalf("seed %d: a handed-in Frag was not shared", seed)
				}
			}
		}
	}
	if held == 0 {
		t.Fatal("no fragment held a local model; the check is vacuous")
	}
}
