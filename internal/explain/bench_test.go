package explain

import (
	"sort"
	"testing"

	"cape/internal/dataset"
	"cape/internal/engine"
	"cape/internal/mining"
	"cape/internal/pattern"
	"cape/internal/value"
)

// BenchmarkExplainerWarm measures one question on a warm Explainer: a
// 300K-row Crime table (10 communities), the pattern set the repository
// benchmark mines from it, and questions over its four group-by shapes,
// drawn from each shape's above-median groups. Every question is asked
// once before the timer starts, so each grouping generation reads is
// cached and an iteration is relevance, NORM, drill-down and top-k only.
// Run with -benchmem: allocations per question are part of the result.
//
//	go test -run XXX -bench BenchmarkExplainerWarm -benchmem ./internal/explain
func BenchmarkExplainerWarm(b *testing.B) {
	tab := dataset.GenerateCrime(dataset.CrimeConfig{Rows: 300000, Seed: 1, NumAttrs: 6, NumCommunities: 10})
	res, err := mining.ARPMine(tab, mining.Options{
		MaxPatternSize: 3,
		Attributes:     []string{"type", "community", "year", "month", "district", "block"},
		Thresholds:     pattern.Thresholds{Theta: 0.25, LocalSupport: 4, Lambda: 0.25, GlobalSupport: 3},
		AggFuncs:       []engine.AggFunc{engine.Count},
	})
	if err != nil {
		b.Fatal(err)
	}
	shapes := [][]string{
		{"type", "district", "year", "month"},
		{"type", "community", "district", "year"},
		{"community", "district", "year", "month"},
		{"district", "year", "month"},
	}
	var qs []UserQuestion
	for _, g := range shapes {
		grouped, err := tab.GroupBy(g, []engine.AggSpec{{Func: engine.Count}})
		if err != nil {
			b.Fatal(err)
		}
		rows := append([]value.Tuple(nil), grouped.Rows()...)
		sort.SliceStable(rows, func(i, j int) bool {
			return value.Compare(rows[i][len(g)], rows[j][len(g)]) > 0
		})
		for i := 0; i < 64; i++ {
			dir := Low
			if i%2 == 1 {
				dir = High
			}
			q, err := QuestionFromRow(g, engine.AggSpec{Func: engine.Count}, rows[i*len(rows)/128], dir)
			if err != nil {
				b.Fatal(err)
			}
			qs = append(qs, q)
		}
	}
	ex := NewExplainer(tab, res.Patterns, Options{K: 10, Parallelism: 1})
	for _, q := range qs {
		if _, _, err := ex.Explain(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, _, err := ex.Explain(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}
