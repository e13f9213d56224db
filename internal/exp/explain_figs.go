package exp

import (
	"fmt"
	"io"
	"sort"
	"time"

	"cape/internal/dataset"
	"cape/internal/distance"
	"cape/internal/engine"
	"cape/internal/explain"
	"cape/internal/mining"
	"cape/internal/pattern"
)

var countStar = engine.AggSpec{Func: engine.Count}

func dblpMetric() *distance.Metric {
	return distance.NewMetric().SetFunc("year", distance.Numeric{Scale: 4})
}

func crimeMetric() *distance.Metric {
	return distance.NewMetric().
		SetFunc("year", distance.Numeric{Scale: 3}).
		SetFunc("community", distance.Numeric{Scale: 2})
}

// explainSetup is the input of Figure 6: a table, the attributes its
// pattern pool is mined over, and the metric explanations are scored
// with.
type explainSetup struct {
	tab    *engine.Table
	attrs  []string
	metric *distance.Metric
}

func dblpExplain(rows int) explainSetup {
	return explainSetup{
		tab:    dataset.GenerateDBLP(dataset.DBLPConfig{Rows: rows, Seed: 3}),
		attrs:  []string{"author", "venue", "year"},
		metric: dblpMetric(),
	}
}

func crimeExplain(rows, numAttrs int, attrs []string) explainSetup {
	return explainSetup{
		tab:    dataset.GenerateCrime(dataset.CrimeConfig{Rows: rows, Seed: 3, NumAttrs: numAttrs}),
		attrs:  attrs,
		metric: crimeMetric(),
	}
}

// pool mines a large pattern pool at lenient thresholds; the
// experiments control the pattern count N_P themselves.
func (s explainSetup) pool() ([]*pattern.Mined, error) {
	res, err := mining.ARPMine(s.tab, mining.Options{
		MaxPatternSize: 3,
		Attributes:     s.attrs,
		Thresholds:     pattern.Thresholds{Theta: 0.1, LocalSupport: 3, Lambda: 0.1, GlobalSupport: 2},
		AggFuncs:       []engine.AggFunc{engine.Count},
		Parallelism:    1,
	})
	if err != nil {
		return nil, err
	}
	return res.Patterns, nil
}

// questions draws Figure 6's five questions grouped by groupBy.
func (s explainSetup) questions(groupBy []string) ([]explain.UserQuestion, error) {
	return RandomQuestions(s.tab, groupBy, countStar, 5, 99)
}

// ExplainInput is Figure 6's input at its full pattern pool, for the
// benchmarks that ablate the generator: the table, the pool, the
// questions and the metric.
type ExplainInput struct {
	Table     *engine.Table
	Patterns  []*pattern.Mined
	Questions []explain.UserQuestion
	Metric    *distance.Metric
}

// DBLPExplainInput is Figure 6a's input over rows DBLP rows.
func DBLPExplainInput(rows int) (ExplainInput, error) {
	s := dblpExplain(rows)
	return s.input(s.attrs)
}

// CrimeExplainInput is Figure 6c's input over rows Crime rows, with the
// questions grouped by aPhi attributes.
func CrimeExplainInput(rows, aPhi int) (ExplainInput, error) {
	s := fig6cExplain(rows)
	return s.input(s.attrs[:aPhi])
}

func (s explainSetup) input(groupBy []string) (ExplainInput, error) {
	pool, err := s.pool()
	if err != nil {
		return ExplainInput{}, err
	}
	qs, err := s.questions(groupBy)
	if err != nil {
		return ExplainInput{}, err
	}
	return ExplainInput{Table: s.tab, Patterns: pool, Questions: qs, Metric: s.metric}, nil
}

// generator is one variant of Figure 6.
type generator struct {
	name string
	run  func(explain.UserQuestion, engine.Relation, []*pattern.Mined, explain.Options) ([]explain.Explanation, *explain.Stats, error)
}

var generators = []generator{
	{"EXPLGEN-NAIVE", explain.GenNaive},
	{"EXPLGEN-OPT", explain.GenOpt},
}

// explain is the unit of work of Figure 6: g answers every question
// from patterns with the top 10.
func (g generator) explain(point string, s explainSetup, patterns []*pattern.Mined, qs []explain.UserQuestion) Case {
	return Case{Name: point + "/" + g.name, Run: func() (Outcome, error) {
		var o Outcome
		for _, q := range qs {
			_, stats, err := g.run(q, s.tab, patterns, explain.Options{K: 10, Metric: s.metric})
			if err != nil {
				return Outcome{}, err
			}
			o.Candidates += stats.Candidates
			o.Pruned += stats.PrunedRefinements
		}
		return o, nil
	}}
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

func printPool(w io.Writer, pool []*pattern.Mined) {
	fmt.Fprintf(w, "pattern pool: %d patterns, %d local models\n", len(pool), localPatternCount(pool))
}

// fig6a: explanation runtime vs N_P on DBLP.
func fig6a(w io.Writer, timer Timer, rows int, eighths []int) error {
	fmt.Fprintf(w, "DBLP, D=%d, question group-by (author, venue, year), 5 questions per point\n", rows)
	return dblpExplain(rows).byPatternCount(w, timer, eighths)
}

// fig6b: explanation runtime vs N_P on Crime.
func fig6b(w io.Writer, timer Timer, rows int, eighths []int) error {
	fmt.Fprintf(w, "Crime, D=%d, question group-by (type, community, year), 5 questions per point\n", rows)
	return crimeExplain(rows, 6, []string{"type", "community", "year", "month"}).byPatternCount(w, timer, eighths)
}

// byPatternCount times both generators over growing prefixes of the
// pattern pool, N_P swept in eighths of its local models so the sweep
// spans the pool whatever its size. The questions group by the first
// three pool attributes.
func (s explainSetup) byPatternCount(w io.Writer, timer Timer, eighths []int) error {
	pool, err := s.pool()
	if err != nil {
		return err
	}
	printPool(w, pool)
	questions, err := s.questions(s.attrs[:3])
	if err != nil {
		return err
	}
	total := localPatternCount(pool)
	fmt.Fprintf(w, "%8s  %14s %14s  %8s\n", "N_P", "EXPLGEN-NAIVE", "EXPLGEN-OPT", "pruned")
	for _, e := range eighths {
		subset := subsetByLocalCount(pool, total*e/8)
		np := localPatternCount(subset)
		var durs [2]time.Duration
		var opt Outcome
		for i, g := range generators {
			o, d, err := timer(g.explain(fmt.Sprintf("N_P=%d", np), s, subset, questions))
			if err != nil {
				return err
			}
			durs[i], opt = d, o
		}
		fmt.Fprintf(w, "%8d  %14s %14s  %8d\n", np, ms(durs[0]), ms(durs[1]), opt.Pruned)
	}
	return nil
}

func fig6cExplain(rows int) explainSetup {
	return crimeExplain(rows, 7, []string{"type", "community", "year", "month", "district"})
}

// fig6c: explanation runtime vs the number of group-by attributes in
// the user question (A_φ), over the full pattern pool.
func fig6c(w io.Writer, timer Timer, rows int) error {
	fmt.Fprintf(w, "Crime, D=%d, 5 questions per point, full pattern pool\n", rows)
	s := fig6cExplain(rows)
	pool, err := s.pool()
	if err != nil {
		return err
	}
	printPool(w, pool)
	fmt.Fprintf(w, "%6s  %14s %14s\n", "A_phi", "EXPLGEN-NAIVE", "EXPLGEN-OPT")
	for aPhi := 2; aPhi <= len(s.attrs); aPhi++ {
		questions, err := s.questions(s.attrs[:aPhi])
		if err != nil {
			return err
		}
		var durs [2]time.Duration
		for i, g := range generators {
			if _, durs[i], err = timer(g.explain(fmt.Sprintf("A_phi=%d", aPhi), s, pool, questions)); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "%6d  %14s %14s\n", aPhi, ms(durs[0]), ms(durs[1]))
	}
	return nil
}

// studyCrime is the Crime extract of Figure 7 and the user study (seed 7,
// five attributes, six crime types).
func studyCrime(rows, communities int) *engine.Table {
	return dataset.GenerateCrime(dataset.CrimeConfig{
		Rows: rows, Seed: 7, NumAttrs: 5, NumTypes: 6, NumCommunities: communities,
	})
}

// studySpec places the planted counterbalances of Figure 7 and the user
// study: outlier and counterbalance share community and year and differ
// in crime type.
var studySpec = SiteSpec{TypeAttr: "type", FragAttr: "community", PredAttr: "year", MinOutlierCount: 10}

// studyMining mines the study's question attributes with count(*) at
// the given thresholds.
func studyMining(th pattern.Thresholds) mining.Options {
	return mining.Options{
		MaxPatternSize: 3,
		Attributes:     studySpec.QuestionAttrs(),
		Thresholds:     th,
		AggFuncs:       []engine.AggFunc{engine.Count},
		Parallelism:    1,
	}
}

// studyThresholds find the study's injection sites and, in the user
// study, mine the injected data too.
var studyThresholds = pattern.Thresholds{Theta: 0.2, LocalSupport: 3, Lambda: 0.2, GlobalSupport: 5}

// fig7: the parameter-sensitivity grid of Figure 7. Every grid point
// measures the same planted ground truths: sites are found once, at
// studyThresholds, and only the re-mine of the injected data sweeps
// (θ, λ, Δ).
func fig7(w io.Writer, timer Timer, rows, communities int) error {
	const numQ = 10
	tab := studyCrime(rows, communities)
	fmt.Fprintf(w, "Crime, D=%d, %d injected questions, top-10 checked\n", rows, numQ)
	fmt.Fprintf(w, "%6s %7s %7s  %10s\n", "theta", "lambda", "Delta", "precision")
	for _, theta := range []float64{0.1, 0.2, 0.35, 0.5} {
		for _, lambda := range []float64{0.2, 0.5} {
			for _, gsupp := range []int{2, 5, 15} {
				cfg := PrecisionConfig{
					Table:        tab,
					Spec:         studySpec,
					SiteMining:   studyMining(studyThresholds),
					Mining:       studyMining(pattern.Thresholds{Theta: theta, LocalSupport: 3, Lambda: lambda, GlobalSupport: gsupp}),
					NumQuestions: numQ,
					K:            10,
					Delta:        5,
					Metric:       crimeMetric(),
				}
				var res PrecisionResult
				_, _, err := timer(Case{
					Name: fmt.Sprintf("theta=%.2f/lambda=%.2f/Delta=%d", theta, lambda, gsupp),
					Run: func() (Outcome, error) {
						var err error
						res, err = RunPrecision(cfg)
						return Outcome{}, err
					},
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%6.2f %7.2f %7d  %9.0f%%\n", theta, lambda, gsupp, res.Precision()*100)
			}
		}
	}
	return nil
}
