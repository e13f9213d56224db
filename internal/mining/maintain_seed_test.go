package mining

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cape/internal/engine"
	"cape/internal/value"
)

// seedSchema is the seeded-vs-folded fixture: a string and an untyped
// key column, a year predictor, an untyped Int column "big" whose sums
// pass 2⁵³ (Float rows arrive later), and an Int column "amt" with NULLs.
var seedSchema = engine.Schema{
	{Name: "g", Kind: value.String},
	{Name: "k", Kind: value.Null},
	{Name: "yr", Kind: value.Int},
	{Name: "big", Kind: value.Null},
	{Name: "amt", Kind: value.Int},
}

// seedKeys are "k" values whose classes a float64 comparison or a
// kind-sensitive one would split or merge wrongly: Int(1) and Float(1),
// ±0.0 and Int(0), NaNs with two payloads.
var seedKeys = []value.V{
	value.NewInt(1), value.NewFloat(1),
	value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewInt(0),
	value.NewFloat(math.NaN()), value.NewFloat(math.Float64frombits(0x7ff8000000000001)),
	value.NewFloat(2.5),
}

// seedRows draws reps copies of a design in which every (g, k, yr) group
// holds yr−1999 rows, so count(*) and sum(big) grow linearly in yr and
// their Lin patterns hold; big is 2⁵² plus a small int, so a group's
// float sum rounds differently under any other summation order. Rows
// come shuffled.
func seedRows(rng *rand.Rand, reps int, gs []string) []value.Tuple {
	var rows []value.Tuple
	for r := 0; r < reps; r++ {
		for _, g := range gs {
			for _, k := range seedKeys {
				for yr := 2000; yr < 2004; yr++ {
					for i := 0; i <= yr-2000; i++ {
						amt := value.NewInt(int64(rng.Intn(20)))
						if rng.Intn(5) == 0 {
							amt = value.NewNull()
						}
						rows = append(rows, value.Tuple{value.NewString(g), k, value.NewInt(int64(yr)),
							value.NewInt(1<<52 + int64(rng.Intn(8))), amt})
					}
				}
			}
		}
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows
}

// scanAll reads every row of rel as it logically holds them (a sealed
// segment keeps one representative per canonical-key class).
func scanAll(t *testing.T, rel engine.MutableRelation) []value.Tuple {
	t.Helper()
	var rows []value.Tuple
	if err := rel.ScanRows(0, rel.NumRows(), func(row value.Tuple) error {
		rows = append(rows, row.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestMaintainerSeededEqualsFolded pins the build to the fold: a
// Maintainer seeded from a populated relation (group-by kernels, one
// split enumeration, one fit per fragment) must equal one built over an
// empty relation of the same kind and fed the same rows through Apply —
// Patterns bytes and CandStats — after the build and after each of three
// further appends, the second of which brings Float values into the
// Int-only "big" sums. Covered: dense Table and SegTable (two sealed
// segments plus a tail), pool widths 1 and 4, Sum and Avg.
func TestMaintainerSeededEqualsFolded(t *testing.T) {
	type backing struct {
		name string
		seed func(rows []value.Tuple) engine.MutableRelation
		make func() engine.MutableRelation
	}
	backings := []backing{
		{"table", func(rows []value.Tuple) engine.MutableRelation {
			tab := engine.NewTable(seedSchema)
			if err := tab.AppendRows(rows); err != nil {
				t.Fatal(err)
			}
			return tab
		}, func() engine.MutableRelation { return engine.NewTable(seedSchema) }},
		{"segtable", func(rows []value.Tuple) engine.MutableRelation {
			tab := engine.NewTable(seedSchema)
			if err := tab.AppendRows(rows); err != nil {
				t.Fatal(err)
			}
			return segTableFrom(t, tab, 2, len(rows)/5)
		}, func() engine.MutableRelation { return engine.NewSegTable(seedSchema) }},
	}
	aggSets := [][]engine.AggFunc{{engine.Count, engine.Sum}, {engine.Avg}}
	for _, b := range backings {
		for _, funcs := range aggSets {
			for _, par := range []int{1, 4} {
				label := fmt.Sprintf("%s %v par %d", b.name, funcs, par)
				rng := rand.New(rand.NewSource(int64(par)))
				opt := lenientOpts()
				opt.AggFuncs = funcs
				opt.Parallelism = par

				seeded, err := NewMaintainer(b.seed(seedRows(rng, 4, []string{"a", "b", "c"})), opt)
				if err != nil {
					t.Fatal(err)
				}
				folded, err := NewMaintainer(b.make(), opt)
				if err != nil {
					t.Fatal(err)
				}
				if err := folded.Apply(scanAll(t, seeded.Table())); err != nil {
					t.Fatal(err)
				}
				requireSeededEqualsFolded(t, label+" build", seeded, folded)

				batches := [][]value.Tuple{
					seedRows(rng, 1, []string{"a", "d"}), // old groups and new ones
					seedRows(rng, 1, []string{"b"}),
					seedRows(rng, 1, []string{"c", "e"}),
				}
				for i, row := range batches[1] {
					if i%3 == 0 {
						row[3] = value.NewFloat(float64(1<<52) + 0.5)
					}
				}
				for i, batch := range batches {
					if err := seeded.Apply(batch); err != nil {
						t.Fatal(err)
					}
					if err := folded.Apply(batch); err != nil {
						t.Fatal(err)
					}
					requireSeededEqualsFolded(t, fmt.Sprintf("%s append %d", label, i+1), seeded, folded)
				}
				requireSameAsRemine(t, label+" final", seeded, opt)
				big := 0
				for _, p := range seeded.Patterns() {
					if p.Pattern.Agg.Arg == "big" {
						big++
					}
				}
				if big == 0 {
					t.Fatalf("%s: no pattern over big; the sum check is vacuous", label)
				}
			}
		}
	}
}

func requireSeededEqualsFolded(t *testing.T, label string, seeded, folded *Maintainer) {
	t.Helper()
	if got, want := patternsJSON(t, seeded.Patterns()), patternsJSON(t, folded.Patterns()); !bytes.Equal(got, want) {
		t.Fatalf("%s: seeded patterns diverge from folded\nseeded: %s\nfolded: %s", label, got, want)
	}
	if got, want := seeded.CandStats(), folded.CandStats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: seeded CandStats diverge from folded\nseeded: %v\nfolded: %v", label, got, want)
	}
}
