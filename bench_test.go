package cape

// The paper's tables and figures as testing.B targets. Each runs the
// cases internal/exp defines — the same ones `go run ./cmd/capebench
// <id>` times once — at capebench's default sizes, with the case
// parameters in the sub-benchmark name, so -bench selects one series or
// point, e.g. -bench 'Fig3b/D=5000/ARP-MINE'. Run with:
//
//	go test -run '^$' -bench . -benchmem .

import (
	"fmt"
	"io"
	"testing"
	"time"

	"cape/internal/engine"
	"cape/internal/exp"
	"cape/internal/mining"
)

func BenchmarkFig3a(b *testing.B)     { benchExperiment(b, "fig3a") }
func BenchmarkFig3b(b *testing.B)     { benchExperiment(b, "fig3b") }
func BenchmarkFig3c(b *testing.B)     { benchExperiment(b, "fig3c") }
func BenchmarkFig4(b *testing.B)      { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkFig6a(b *testing.B)     { benchExperiment(b, "fig6a") }
func BenchmarkFig6b(b *testing.B)     { benchExperiment(b, "fig6b") }
func BenchmarkFig6c(b *testing.B)     { benchExperiment(b, "fig6c") }
func BenchmarkFig7(b *testing.B)      { benchExperiment(b, "fig7") }
func BenchmarkTable3(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)    { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)    { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B)    { benchExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B)    { benchExperiment(b, "table7") }
func BenchmarkUserStudy(b *testing.B) { benchExperiment(b, "userstudy") }

// benchExperiment builds the experiment's data once, untimed, and runs
// each of its cases as a sub-benchmark.
func benchExperiment(b *testing.B, name string) {
	e, ok := exp.Find(name)
	if !ok {
		b.Fatalf("no experiment %q", name)
	}
	err := e.Run(io.Discard, func(c exp.Case) (o exp.Outcome, d time.Duration, err error) {
		b.Run(c.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if o, err = c.Run(); err != nil {
					b.Fatal(err)
				}
			}
			d = b.Elapsed() / time.Duration(b.N)
		})
		return o, d, err
	}, false)
	if err != nil {
		b.Fatal(err)
	}
}

// ---- Ablation benches for DESIGN.md's called-out design choices ----

// BenchmarkAblation_SortOrderReuse isolates ARP-MINE's sort-order reuse
// against plain per-(F,V) sorting (SHARE-GRP) at equal query sharing.
func BenchmarkAblation_SortOrderReuse(b *testing.B) {
	tab, opt := exp.CrimeMining(5000, 6, 4)
	b.Run("per-split-sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mining.ShareGrp(tab, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused-sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MinePatterns(tab, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// explainAll answers every question of in with opt.
func explainAll(b *testing.B, in exp.ExplainInput, gen func(Question, *Table, []*MinedPattern, ExplainOptions) ([]Explanation, *ExplainStats, error), opt ExplainOptions) {
	opt.Metric = in.Metric
	for _, q := range in.Questions {
		if _, _, err := gen(q, in.Table, in.Patterns, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_ScoreBoundPruning isolates the Section-3.5 upper
// score bound at K = 1, 10 and 100 over Figure 6a's five questions and
// full pattern pool; on these full-width questions it prunes little.
func BenchmarkAblation_ScoreBoundPruning(b *testing.B) {
	in, err := exp.DBLPExplainInput(10000)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("K=%d/naive", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				explainAll(b, in, ExplainNaive, ExplainOptions{K: k})
			}
		})
		b.Run(fmt.Sprintf("K=%d/pruned", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				explainAll(b, in, Explain, ExplainOptions{K: k})
			}
		})
	}
}

// BenchmarkEngine_GroupBy measures the hash-aggregation hot path the
// miners are built on.
func BenchmarkEngine_GroupBy(b *testing.B) {
	tab := GenerateCrime(CrimeConfig{Rows: 20000, Seed: 1, NumAttrs: 7})
	aggs := []AggSpec{Count(), Sum("month")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tab.GroupBy([]string{"type", "community", "year"}, aggs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngine_Cube measures the cube operator CubeMine pays for.
func BenchmarkEngine_Cube(b *testing.B) {
	tab := GenerateCrime(CrimeConfig{Rows: 5000, Seed: 1, NumAttrs: 6})
	aggs := []AggSpec{Count()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Cube(tab, nil, tab.Schema().Names(), 2, 4, aggs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_NormVisitOrder compares the two pattern visit orders
// for the bound-pruned generator: ascending NORM (our default — largest
// possible scores first) versus descending NORM (the order the paper's
// prose literally states). Ascending should prune at least as much.
func BenchmarkAblation_NormVisitOrder(b *testing.B) {
	in, err := exp.CrimeExplainInput(10000, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ascending", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			explainAll(b, in, Explain, ExplainOptions{K: 10})
		}
	})
	b.Run("descending", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			explainAll(b, in, Explain, ExplainOptions{K: 10, DescendingNorm: true})
		}
	})
}

// BenchmarkGenOptParallel sweeps the explanation worker count; one op
// answers Figure 6a's five questions at 10K rows. On
// multi-core hosts the higher worker counts should approach proportional
// speedups; on a single vCPU the sweep mostly measures how cheap the
// coordination (atomic cursor, shared bound, singleflight cache) is.
func BenchmarkGenOptParallel(b *testing.B) {
	in, err := exp.DBLPExplainInput(10000)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				explainAll(b, in, Explain, ExplainOptions{K: 10, Parallelism: w})
			}
		})
	}
}

// BenchmarkAblation_ExplainerCache compares cold per-question generation
// (GenOpt re-groups the relation for every refined pattern) against the
// warm-cache Explainer answering the same questions repeatedly.
func BenchmarkAblation_ExplainerCache(b *testing.B) {
	in, err := exp.DBLPExplainInput(10000)
	if err != nil {
		b.Fatal(err)
	}
	opt := ExplainOptions{K: 10, Metric: in.Metric}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			explainAll(b, in, Explain, opt)
		}
	})
	b.Run("warm", func(b *testing.B) {
		ex := NewExplainer(in.Table, in.Patterns, opt)
		warm := func(q Question, _ *Table, _ []*MinedPattern, _ ExplainOptions) ([]Explanation, *ExplainStats, error) {
			return ex.Explain(q)
		}
		explainAll(b, in, warm, opt) // prime the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			explainAll(b, in, warm, opt)
		}
	})
}
