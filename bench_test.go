package cape

// Benchmarks regenerating the paper's tables and figures as testing.B
// targets, one per experiment. Run with:
//
//	go test -bench=. -benchmem
//
// Sub-benchmarks carry the experiment parameters in their names
// (dataset/D=<rows>/A=<attrs> etc.), so -bench can select a single series,
// e.g. -bench 'Fig3b/D=10000'.

import (
	"fmt"
	"testing"
)

func crimeTable(b *testing.B, rows, attrs int) *Table {
	b.Helper()
	return GenerateCrime(CrimeConfig{Rows: rows, Seed: 1, NumAttrs: attrs})
}

func dblpTable(b *testing.B, rows int) *Table {
	b.Helper()
	return GenerateDBLP(DBLPConfig{Rows: rows, Seed: 1})
}

func benchThresholds() Thresholds {
	return Thresholds{Theta: 0.5, LocalSupport: 5, Lambda: 0.5, GlobalSupport: 5}
}

func benchMiningOpts(attrs []string, psi int) MiningOptions {
	return MiningOptions{
		MaxPatternSize: psi,
		Attributes:     attrs,
		Thresholds:     benchThresholds(),
		AggFuncs:       []AggFunc{AggCount, AggSum},
	}
}

// BenchmarkFig3a_MiningVariantsByAttrs is Figure 3a: mining runtime vs
// attribute count for the four miner variants on the Crime data. NAIVE
// only runs at A=4 (the paper omitted its larger points too).
func BenchmarkFig3a_MiningVariantsByAttrs(b *testing.B) {
	variants := []struct {
		name string
		run  func(*Table, MiningOptions) (*MiningResult, error)
	}{
		{"NAIVE", MinePatternsNaive},
		{"CUBE", MinePatternsCube},
		{"SHARE-GRP", MinePatternsShareGrp},
		{"ARP-MINE", MinePatterns},
	}
	for _, a := range []int{4, 5, 6} {
		tab := crimeTable(b, 2000, a)
		opt := benchMiningOpts(tab.Schema().Names(), 4)
		for _, v := range variants {
			if v.name == "NAIVE" && a > 4 {
				continue
			}
			b.Run(fmt.Sprintf("A=%d/%s", a, v.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := v.run(tab, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig3b_MiningByRowsCrime is Figure 3b: mining runtime vs row
// count on Crime (A=7), ARP-MINE vs SHARE-GRP vs CUBE.
func BenchmarkFig3b_MiningByRowsCrime(b *testing.B) {
	for _, d := range []int{2000, 5000, 10000} {
		tab := crimeTable(b, d, 7)
		opt := benchMiningOpts(tab.Schema().Names(), 3)
		for _, v := range []struct {
			name string
			run  func(*Table, MiningOptions) (*MiningResult, error)
		}{
			{"CUBE", MinePatternsCube},
			{"SHARE-GRP", MinePatternsShareGrp},
			{"ARP-MINE", MinePatterns},
		} {
			b.Run(fmt.Sprintf("D=%d/%s", d, v.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := v.run(tab, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig3c_MiningByRowsDBLP is Figure 3c: mining runtime vs row
// count on DBLP.
func BenchmarkFig3c_MiningByRowsDBLP(b *testing.B) {
	for _, d := range []int{2000, 5000, 10000} {
		tab := dblpTable(b, d)
		opt := benchMiningOpts([]string{"author", "year", "venue"}, 3)
		b.Run(fmt.Sprintf("D=%d/ARP-MINE", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := MinePatterns(tab, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4_SubtaskBreakdown is Figure 4: it reports the regression
// and query shares of one ARP-MINE run as custom metrics (ns per op).
func BenchmarkFig4_SubtaskBreakdown(b *testing.B) {
	for _, a := range []int{4, 6} {
		tab := crimeTable(b, 2000, a)
		opt := benchMiningOpts(tab.Schema().Names(), 4)
		b.Run(fmt.Sprintf("A=%d/ARP-MINE", a), func(b *testing.B) {
			var regress, query int64
			for i := 0; i < b.N; i++ {
				res, err := MinePatterns(tab, opt)
				if err != nil {
					b.Fatal(err)
				}
				regress += int64(res.Timers.Regression)
				query += int64(res.Timers.Query)
			}
			b.ReportMetric(float64(regress)/float64(b.N), "regress-ns/op")
			b.ReportMetric(float64(query)/float64(b.N), "query-ns/op")
		})
	}
}

// BenchmarkFig5_FDOptimization is Figure 5: ARP-MINE with the functional
// dependency optimizations on versus off, on the FD-rich 10-attribute
// Crime schema.
func BenchmarkFig5_FDOptimization(b *testing.B) {
	tab := crimeTable(b, 5000, 10)
	for _, useFDs := range []bool{false, true} {
		opt := benchMiningOpts(tab.Schema().Names(), 3)
		opt.UseFDs = useFDs
		name := "FDs=off"
		if useFDs {
			name = "FDs=on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := MinePatterns(tab, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// explBenchSetup mines a lenient pattern pool and fixes one question.
func explBenchSetup(b *testing.B, tab *Table, attrs, qAttrs []string) ([]*MinedPattern, Question, *Metric) {
	b.Helper()
	res, err := MinePatterns(tab, MiningOptions{
		MaxPatternSize: 3,
		Attributes:     attrs,
		Thresholds:     Thresholds{Theta: 0.1, LocalSupport: 3, Lambda: 0.1, GlobalSupport: 2},
		AggFuncs:       []AggFunc{AggCount},
	})
	if err != nil {
		b.Fatal(err)
	}
	grouped, err := tab.GroupBy(qAttrs, []AggSpec{Count()})
	if err != nil {
		b.Fatal(err)
	}
	// The largest group — the paper's worst-case bias.
	var best Tuple
	bestN := int64(-1)
	aggIdx := len(qAttrs)
	for _, row := range grouped.Rows() {
		if n := row[aggIdx].Int(); n > bestN {
			bestN = n
			best = row.Clone()
		}
	}
	q, err := QuestionFromRow(qAttrs, Count(), best, Low)
	if err != nil {
		b.Fatal(err)
	}
	metric := NewMetric().SetFunc("year", NumericDistance{Scale: 4})
	return res.Patterns, q, metric
}

// BenchmarkFig6a_ExplainDBLP is Figure 6a: explanation generation on
// DBLP, naive vs bound-pruned.
func BenchmarkFig6a_ExplainDBLP(b *testing.B) {
	tab := dblpTable(b, 10000)
	patterns, q, metric := explBenchSetup(b, tab,
		[]string{"author", "venue", "year"}, []string{"author", "venue", "year"})
	b.Run("EXPLGEN-NAIVE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := ExplainNaive(q, tab, patterns, ExplainOptions{K: 10, Metric: metric}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("EXPLGEN-OPT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := Explain(q, tab, patterns, ExplainOptions{K: 10, Metric: metric}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig6b_ExplainCrime is Figure 6b: explanation generation on
// Crime.
func BenchmarkFig6b_ExplainCrime(b *testing.B) {
	tab := crimeTable(b, 10000, 6)
	patterns, q, metric := explBenchSetup(b, tab,
		[]string{"type", "community", "year", "month"},
		[]string{"type", "community", "year"})
	b.Run("EXPLGEN-NAIVE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := ExplainNaive(q, tab, patterns, ExplainOptions{K: 10, Metric: metric}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("EXPLGEN-OPT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := Explain(q, tab, patterns, ExplainOptions{K: 10, Metric: metric}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig6c_ExplainByQuestionWidth is Figure 6c: explanation
// runtime as the question's group-by width A_φ grows.
func BenchmarkFig6c_ExplainByQuestionWidth(b *testing.B) {
	tab := crimeTable(b, 10000, 7)
	attrs := []string{"type", "community", "year", "month", "district"}
	for aPhi := 2; aPhi <= 4; aPhi++ {
		patterns, q, metric := explBenchSetup(b, tab, attrs, attrs[:aPhi])
		b.Run(fmt.Sprintf("Aphi=%d", aPhi), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Explain(q, tab, patterns, ExplainOptions{K: 10, Metric: metric}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7_PrecisionRun is Figure 7's unit of work: one full
// inject → re-mine → explain → check cycle at the recommended
// thresholds.
func BenchmarkFig7_PrecisionRun(b *testing.B) {
	tab := GenerateCrime(CrimeConfig{
		Rows: 10000, Seed: 7, NumAttrs: 5, NumTypes: 6, NumCommunities: 12,
	})
	metric := NewMetric().
		SetFunc("year", NumericDistance{Scale: 3}).
		SetFunc("community", NumericDistance{Scale: 2})
	cfg := PrecisionConfig{
		Table: tab,
		Spec:  SiteSpec{TypeAttr: "type", FragAttr: "community", PredAttr: "year", MinOutlierCount: 10},
		Mining: MiningOptions{
			MaxPatternSize: 3,
			Attributes:     []string{"type", "community", "year"},
			Thresholds:     Thresholds{Theta: 0.2, LocalSupport: 3, Lambda: 0.2, GlobalSupport: 5},
			AggFuncs:       []AggFunc{AggCount},
		},
		NumQuestions: 2,
		K:            10,
		Delta:        5,
		Metric:       metric,
	}
	for i := 0; i < b.N; i++ {
		if _, err := RunPrecisionExperiment(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3_RunningExample times the full table-3 pipeline (mine +
// explain) on the running example.
func BenchmarkTable3_RunningExample(b *testing.B) {
	tab := RunningExample()
	for i := 0; i < b.N; i++ {
		s := NewSession(tab)
		s.SetMetric(NewMetric().SetFunc("year", NumericDistance{Scale: 4}))
		err := s.Mine(MiningOptions{
			MaxPatternSize: 3,
			Thresholds:     Thresholds{Theta: 0.5, LocalSupport: 3, Lambda: 0.3, GlobalSupport: 2},
			AggFuncs:       []AggFunc{AggCount},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Ask([]string{"author", "venue", "year"}, Count(),
			Tuple{String("AX"), String("SIGKDD"), Int(2007)}, Low,
			ExplainOptions{K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTables6and7_Baseline times the Appendix-A baseline explainer.
func BenchmarkTables6and7_Baseline(b *testing.B) {
	tab := crimeTable(b, 10000, 5)
	grouped, err := tab.GroupBy([]string{"type", "community", "year"}, []AggSpec{Count()})
	if err != nil {
		b.Fatal(err)
	}
	q, err := QuestionFromRow([]string{"type", "community", "year"}, Count(), grouped.Row(0), Low)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := ExplainBaseline(q, tab, BaselineOptions{K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation benches for DESIGN.md's called-out design choices ----

// BenchmarkAblation_SortOrderReuse isolates ARP-MINE's sort-order reuse
// against plain per-(F,V) sorting (SHARE-GRP) at equal query sharing.
func BenchmarkAblation_SortOrderReuse(b *testing.B) {
	tab := crimeTable(b, 5000, 6)
	opt := benchMiningOpts(tab.Schema().Names(), 4)
	b.Run("per-split-sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MinePatternsShareGrp(tab, opt); err != nil {
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

// BenchmarkAblation_ScoreBoundPruning isolates the Section-3.5 upper
// score bound at a small K, where pruning bites hardest.
func BenchmarkAblation_ScoreBoundPruning(b *testing.B) {
	tab := dblpTable(b, 10000)
	patterns, q, metric := explBenchSetup(b, tab,
		[]string{"author", "venue", "year"}, []string{"author", "venue", "year"})
	for _, k := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("K=%d/naive", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ExplainNaive(q, tab, patterns, ExplainOptions{K: k, Metric: metric}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("K=%d/pruned", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Explain(q, tab, patterns, ExplainOptions{K: k, Metric: metric}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngine_GroupBy measures the hash-aggregation hot path the
// miners are built on.
func BenchmarkEngine_GroupBy(b *testing.B) {
	tab := crimeTable(b, 20000, 7)
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
	tab := crimeTable(b, 5000, 6)
	aggs := []AggSpec{Count()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tab.Cube(tab.Schema().Names(), 2, 4, aggs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_NormVisitOrder compares the two pattern visit orders
// for the bound-pruned generator: ascending NORM (our default — largest
// possible scores first) versus descending NORM (the order the paper's
// prose literally states). Ascending should prune at least as much.
func BenchmarkAblation_NormVisitOrder(b *testing.B) {
	tab := crimeTable(b, 10000, 7)
	attrs := []string{"type", "community", "year", "month", "district"}
	patterns, q, metric := explBenchSetup(b, tab, attrs, attrs[:4])
	b.Run("ascending", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := Explain(q, tab, patterns, ExplainOptions{K: 10, Metric: metric}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("descending", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := Explain(q, tab, patterns, ExplainOptions{K: 10, Metric: metric, DescendingNorm: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGenOptParallel sweeps the explanation worker count. On
// multi-core hosts the higher worker counts should approach proportional
// speedups; on a single vCPU the sweep mostly measures how cheap the
// coordination (atomic cursor, shared bound, singleflight cache) is.
func BenchmarkGenOptParallel(b *testing.B) {
	tab := dblpTable(b, 10000)
	patterns, q, metric := explBenchSetup(b, tab,
		[]string{"author", "venue", "year"}, []string{"author", "venue", "year"})
	for _, w := range []int{1, 2, 4, 8} {
		opt := ExplainOptions{K: 10, Metric: metric, Parallelism: w}
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Explain(q, tab, patterns, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_ParallelMining compares sequential mining with a
// 4-worker fan-out over attribute sets. On multi-core hosts the parallel
// run should approach a proportional speedup; on a single vCPU it mostly
// measures coordination overhead.
func BenchmarkAblation_ParallelMining(b *testing.B) {
	tab := crimeTable(b, 5000, 7)
	for _, workers := range []int{1, 4} {
		opt := benchMiningOpts(tab.Schema().Names(), 3)
		opt.Parallelism = workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := MinePatterns(tab, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_ExplainerCache compares cold per-question generation
// (Generate re-groups the relation for every refined pattern) against the
// warm-cache Explainer answering the same question repeatedly.
func BenchmarkAblation_ExplainerCache(b *testing.B) {
	tab := dblpTable(b, 10000)
	patterns, q, metric := explBenchSetup(b, tab,
		[]string{"author", "venue", "year"}, []string{"author", "venue", "year"})
	opt := ExplainOptions{K: 10, Metric: metric}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := Explain(q, tab, patterns, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		ex := NewExplainer(tab, patterns, opt)
		if _, _, err := ex.Explain(q); err != nil { // prime the cache
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := ex.Explain(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
