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

// benchMining is the mining the repository benchmark runs over
// benchCrime's table.
var benchMining = mining.Options{
	MaxPatternSize: 3,
	Attributes:     []string{"type", "community", "year", "month", "district", "block"},
	Thresholds:     pattern.Thresholds{Theta: 0.25, LocalSupport: 4, Lambda: 0.25, GlobalSupport: 3},
	AggFuncs:       []engine.AggFunc{engine.Count},
}

// benchCrime is the setting of the Explainer benchmarks: a 300K-row
// Crime table (10 communities), the pattern set the repository
// benchmark mines from it, and 256 questions over its four group-by
// shapes, drawn from each shape's above-median groups.
func benchCrime(b *testing.B) (*engine.Table, []*pattern.Mined, []UserQuestion) {
	cfg := dataset.CrimeConfig{Rows: 300000, Seed: 1, NumAttrs: 6, NumCommunities: 10}
	tab := dataset.GenerateCrime(cfg)
	res, err := mining.ARPMine(tab, benchMining)
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
	return tab, res.Patterns, qs
}

// warmExplainer returns an Explainer over tab that has answered every
// question once, so each grouping generation reads is cached.
func warmExplainer(b *testing.B, tab *engine.Table, pats []*pattern.Mined, qs []UserQuestion) *Explainer {
	ex := NewExplainer(tab, pats, Options{K: 10, Parallelism: 1})
	for _, q := range qs {
		if _, _, err := ex.Explain(q); err != nil {
			b.Fatal(err)
		}
	}
	return ex
}

// BenchmarkExplainerWarm measures one question on a warm Explainer over
// benchCrime: an iteration is relevance, NORM, drill-down and top-k
// only. Run with -benchmem: allocations per question are part of the
// result.
//
//	go test -run XXX -bench BenchmarkExplainerWarm -benchmem ./internal/explain
func BenchmarkExplainerWarm(b *testing.B) {
	tab, pats, qs := benchCrime(b)
	ex := warmExplainer(b, tab, pats, qs)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, _, err := ex.Explain(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExplainerAfterAppend measures what an append costs the next
// question on a warm Explainer over benchCrime: an iteration appends a
// 100-row Crime batch, then answers one question. Batches repeat after
// the first 64. The patterns stay those of the initial table, so the
// time is generation's alone, not a re-mine's.
//
//	go test -run XXX -bench BenchmarkExplainerAfterAppend -benchmem ./internal/explain
//
// In the own arm the Explainer keeps its own groupings, and each one the
// question reads folds the rows appended since its last use. In the
// maintained arm it reads pattern groupings from a Maintainer of the
// same table, caught up on each batch outside the timer (a server's
// append does that whether or not a question follows), so the question
// folds nothing. The cold arm appends nothing: a fresh Explainer reading
// from a Maintainer built once answers its first question, as after a
// server's /v1/mine.
func BenchmarkExplainerAfterAppend(b *testing.B) {
	tab, pats, qs := benchCrime(b)
	more := dataset.GenerateCrime(dataset.CrimeConfig{Rows: 6400, Seed: 2, NumAttrs: 6, NumCommunities: 10}).Rows()
	b.Run("own", func(b *testing.B) {
		tab := tab.Clone()
		ex := warmExplainer(b, tab, pats, qs)
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			batch := i % 64
			if err := tab.AppendRows(more[batch*100 : (batch+1)*100]); err != nil {
				b.Fatal(err)
			}
			if _, _, err := ex.Explain(qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("maintained", func(b *testing.B) {
		tab := tab.Clone()
		m := benchMaintainer(b, tab)
		ex := NewExplainer(tab, pats, Options{K: 10, Parallelism: 1})
		ex.SetGroupingSource(m)
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			batch := i % 64
			if err := tab.AppendRows(more[batch*100 : (batch+1)*100]); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := m.CatchUp(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, _, err := ex.Explain(qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		m := benchMaintainer(b, tab)
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			ex := NewExplainer(tab, pats, Options{K: 10, Parallelism: 1})
			ex.SetGroupingSource(m)
			if _, _, err := ex.Explain(qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchMaintainer builds the Maintainer of benchCrime's mining over tab.
func benchMaintainer(b *testing.B, tab *engine.Table) *mining.Maintainer {
	m, err := mining.NewMaintainer(tab, benchMining)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkExplainerQuestion measures a question as a server answers
// it, on a warm Explainer over benchCrime: an iteration resolves the
// question from its parts — the tuple looked up in the retained result
// of its question query — and then explains it. It asks
// BenchmarkExplainerWarm's questions in the same order and direction,
// with the question queries' results already retained, so its time less
// Warm's is Explainer.Question's alone.
//
//	go test -run XXX -bench BenchmarkExplainerQuestion -benchmem ./internal/explain
func BenchmarkExplainerQuestion(b *testing.B) {
	tab, pats, qs := benchCrime(b)
	ex := warmExplainer(b, tab, pats, qs)
	for _, q := range qs {
		if _, err := ex.Question(q.GroupBy, q.Agg, q.Values, q.Dir); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		q := qs[i%len(qs)]
		q, err := ex.Question(q.GroupBy, q.Agg, q.Values, q.Dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ex.Explain(q); err != nil {
			b.Fatal(err)
		}
	}
}
