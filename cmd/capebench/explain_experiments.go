package main

import (
	"fmt"
	"sort"
	"time"

	"cape/internal/dataset"
	"cape/internal/distance"
	"cape/internal/engine"
	"cape/internal/exp"
	"cape/internal/explain"
	"cape/internal/mining"
	"cape/internal/pattern"
)

// lenientThresholds mine a large pattern pool for the explanation
// experiments, which control the pattern count N_P explicitly.
func lenientThresholds() pattern.Thresholds {
	return pattern.Thresholds{Theta: 0.1, LocalSupport: 3, Lambda: 0.1, GlobalSupport: 2}
}

// localPatternCount sums the local models across mined patterns — the
// paper's N_P.
func localPatternCount(ps []*pattern.Mined) int {
	n := 0
	for _, p := range ps {
		n += len(p.Locals)
	}
	return n
}

// subsetByLocalCount returns a prefix of patterns whose total local model
// count is at least target (or all patterns). Patterns are ordered by
// key, so prefixes nest across targets.
func subsetByLocalCount(ps []*pattern.Mined, target int) []*pattern.Mined {
	sorted := append([]*pattern.Mined(nil), ps...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Pattern.Key() < sorted[j].Pattern.Key()
	})
	total := 0
	for i, p := range sorted {
		total += len(p.Locals)
		if total >= target {
			return sorted[:i+1]
		}
	}
	return sorted
}

// runExplSweep mines once at lenient thresholds, generates questions, and
// times GenNaive vs GenOpt over increasing pattern subsets.
func runExplSweep(tab *engine.Table, attrs []string, questionAttrs []string,
	metric *distance.Metric, targets []int, numQuestions int) error {

	opt := mining.Options{
		MaxPatternSize: 3,
		Attributes:     attrs,
		Thresholds:     lenientThresholds(),
		AggFuncs:       []engine.AggFunc{engine.Count},
	}
	mined, err := mining.ARPMine(tab, opt)
	if err != nil {
		return err
	}
	fmt.Printf("pattern pool: %d patterns, %d local models\n",
		len(mined.Patterns), localPatternCount(mined.Patterns))

	questions, err := exp.RandomQuestions(tab, questionAttrs, engine.AggSpec{Func: engine.Count}, numQuestions, 99)
	if err != nil {
		return err
	}

	// Interpret targets as eighths of the pool so the sweep spans it
	// regardless of absolute pool size.
	total := localPatternCount(mined.Patterns)
	for i, t := range targets {
		targets[i] = total * t / 8
	}

	fmt.Printf("%8s  %14s %14s  %8s\n", "N_P", "EXPLGEN-NAIVE", "EXPLGEN-OPT", "pruned")
	for _, target := range targets {
		subset := subsetByLocalCount(mined.Patterns, target)
		np := localPatternCount(subset)

		timeGen := func(gen func(explain.UserQuestion, engine.Relation, []*pattern.Mined, explain.Options) ([]explain.Explanation, *explain.Stats, error)) (time.Duration, int, error) {
			start := time.Now()
			pruned := 0
			for _, q := range questions {
				_, stats, err := gen(q, tab, subset, explain.Options{K: 10, Metric: metric})
				if err != nil {
					return 0, 0, err
				}
				pruned += stats.PrunedRefinements
			}
			return time.Since(start), pruned, nil
		}
		naive, _, err := timeGen(explain.GenNaive)
		if err != nil {
			return err
		}
		opt, pruned, err := timeGen(explain.GenOpt)
		if err != nil {
			return err
		}
		fmt.Printf("%8d  %14s %14s  %8d\n",
			np, naive.Round(time.Millisecond), opt.Round(time.Millisecond), pruned)
	}
	return nil
}

// runFig6a: explanation runtime vs N_P on DBLP.
func runFig6a(full bool) error {
	rows := 20000
	targets := []int{1, 2, 4, 8}
	if full {
		rows = 100000
		targets = []int{1, 2, 4, 6, 8}
	}
	fmt.Printf("DBLP, D=%d, question group-by (author, venue, year), 5 questions per point\n", rows)
	tab := dataset.GenerateDBLP(dataset.DBLPConfig{Rows: rows, Seed: 3})
	metric := distance.NewMetric().SetFunc("year", distance.Numeric{Scale: 4})
	return runExplSweep(tab, []string{"author", "venue", "year"},
		[]string{"author", "venue", "year"}, metric, targets, 5)
}

// runFig6b: explanation runtime vs N_P on Crime.
func runFig6b(full bool) error {
	rows := 20000
	targets := []int{1, 2, 4, 8}
	if full {
		rows = 100000
		targets = []int{1, 2, 4, 6, 8}
	}
	fmt.Printf("Crime, D=%d, question group-by (type, community, year), 5 questions per point\n", rows)
	tab := dataset.GenerateCrime(dataset.CrimeConfig{Rows: rows, Seed: 3, NumAttrs: 6})
	metric := distance.NewMetric().
		SetFunc("year", distance.Numeric{Scale: 3}).
		SetFunc("community", distance.Numeric{Scale: 2})
	return runExplSweep(tab, []string{"type", "community", "year", "month"},
		[]string{"type", "community", "year"}, metric, targets, 5)
}

// runFig6c: explanation runtime vs the number of group-by attributes in
// the user question (A_φ).
func runFig6c(full bool) error {
	rows := 20000
	if full {
		rows = 100000
	}
	fmt.Printf("Crime, D=%d, 5 questions per point, full pattern pool\n", rows)
	tab := dataset.GenerateCrime(dataset.CrimeConfig{Rows: rows, Seed: 3, NumAttrs: 7})
	metric := distance.NewMetric().
		SetFunc("year", distance.Numeric{Scale: 3}).
		SetFunc("community", distance.Numeric{Scale: 2})
	attrs := []string{"type", "community", "year", "month", "district"}
	mined, err := mining.ARPMine(tab, mining.Options{
		MaxPatternSize: 3,
		Attributes:     attrs,
		Thresholds:     lenientThresholds(),
		AggFuncs:       []engine.AggFunc{engine.Count},
	})
	if err != nil {
		return err
	}
	fmt.Printf("pattern pool: %d patterns, %d local models\n",
		len(mined.Patterns), localPatternCount(mined.Patterns))
	fmt.Printf("%6s  %14s %14s\n", "A_phi", "EXPLGEN-NAIVE", "EXPLGEN-OPT")
	for aPhi := 2; aPhi <= len(attrs); aPhi++ {
		questionAttrs := attrs[:aPhi]
		questions, err := exp.RandomQuestions(tab, questionAttrs, engine.AggSpec{Func: engine.Count}, 5, 99)
		if err != nil {
			return err
		}
		var naive, fast time.Duration
		for _, q := range questions {
			start := time.Now()
			if _, _, err := explain.GenNaive(q, tab, mined.Patterns, explain.Options{K: 10, Metric: metric}); err != nil {
				return err
			}
			naive += time.Since(start)
			start = time.Now()
			if _, _, err := explain.GenOpt(q, tab, mined.Patterns, explain.Options{K: 10, Metric: metric}); err != nil {
				return err
			}
			fast += time.Since(start)
		}
		fmt.Printf("%6d  %14s %14s\n", aPhi,
			naive.Round(time.Millisecond), fast.Round(time.Millisecond))
	}
	return nil
}

// runFig7: the full parameter-sensitivity grid of Figure 7.
func runFig7(full bool) error {
	rows, communities := 10000, 12
	const numQ = 10
	if full {
		// Communities grow with the rows so per-group counts stay where
		// the site-finding mine (θ=0.2, χ² fit) still admits the two
		// patterns injection needs; 20000 rows over 12 communities mines
		// neither and the experiment cannot start.
		rows, communities = 20000, 24
	}
	tab := dataset.GenerateCrime(dataset.CrimeConfig{
		Rows: rows, Seed: 7, NumAttrs: 5, NumTypes: 6, NumCommunities: communities,
	})
	metric := distance.NewMetric().
		SetFunc("year", distance.Numeric{Scale: 3}).
		SetFunc("community", distance.Numeric{Scale: 2})
	spec := exp.SiteSpec{TypeAttr: "type", FragAttr: "community", PredAttr: "year", MinOutlierCount: 10}
	siteMining := mining.Options{
		MaxPatternSize: 3,
		Attributes:     spec.QuestionAttrs(),
		Thresholds:     pattern.Thresholds{Theta: 0.2, LocalSupport: 3, Lambda: 0.2, GlobalSupport: 5},
		AggFuncs:       []engine.AggFunc{engine.Count},
	}
	fmt.Printf("Crime, D=%d, %d injected questions, top-10 checked\n", rows, numQ)
	fmt.Printf("%6s %7s %7s  %10s\n", "theta", "lambda", "Delta", "precision")
	for _, theta := range []float64{0.1, 0.2, 0.35, 0.5} {
		for _, lambda := range []float64{0.2, 0.5} {
			for _, gsupp := range []int{2, 5, 15} {
				res, err := exp.RunPrecision(exp.PrecisionConfig{
					Table:      tab,
					Spec:       spec,
					SiteMining: siteMining,
					Mining: mining.Options{
						MaxPatternSize: 3,
						Attributes:     spec.QuestionAttrs(),
						Thresholds: pattern.Thresholds{
							Theta: theta, LocalSupport: 3, Lambda: lambda, GlobalSupport: gsupp,
						},
						AggFuncs: []engine.AggFunc{engine.Count},
					},
					NumQuestions: numQ,
					K:            10,
					Delta:        5,
					Metric:       metric,
				})
				if err != nil {
					return err
				}
				fmt.Printf("%6.2f %7.2f %7d  %9.0f%%\n",
					theta, lambda, gsupp, res.Precision()*100)
			}
		}
	}
	return nil
}
