// Package exp defines the paper's experiments (Section 5 and
// Appendices A–B) once, as named cases that cmd/capebench times once and
// the root package's benchmarks run under testing.B, together with the
// machinery behind them: ground-truth outlier injection with site
// selection, the precision measurement of Section 5.3, and random
// user-question generation for the explanation-performance experiments.
package exp

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"cape/internal/dataset"
	"cape/internal/distance"
	"cape/internal/engine"
	"cape/internal/explain"
	"cape/internal/mining"
	"cape/internal/pattern"
	"cape/internal/value"
)

// SiteSpec describes where ground-truth counterbalances may be planted:
// the question schema is (TypeAttr, FragAttr, PredAttr); the outlier and
// its counterbalance share FragAttr and PredAttr values but differ in
// TypeAttr (the paper's cross-venue / cross-crime-type story).
type SiteSpec struct {
	// TypeAttr varies between outlier and counterbalance (venue, type).
	TypeAttr string
	// FragAttr is the shared partition attribute (author, community).
	FragAttr string
	// PredAttr is the predictor attribute (year).
	PredAttr string
	// MinOutlierCount is the minimum group size to deplete (default 10).
	MinOutlierCount int64
	// MinCounterMean is the minimum fragment mean for the receiving
	// group (default 6).
	MinCounterMean float64
}

// Site is one injectable outlier/counterbalance pair over the question
// schema (TypeAttr, FragAttr, PredAttr).
type Site struct {
	Outlier value.Tuple
	Counter value.Tuple
}

// QuestionAttrs returns the question's group-by attributes in site
// order.
func (s SiteSpec) QuestionAttrs() []string {
	return []string{s.TypeAttr, s.FragAttr, s.PredAttr}
}

func (s SiteSpec) targetKey(agg engine.AggSpec) string {
	f := []string{s.FragAttr, s.TypeAttr}
	sort.Strings(f)
	return strings.Join(f, ",") + "|" + s.PredAttr + "|" + agg.String() + "|Const"
}

func (s SiteSpec) coarseKey(agg engine.AggSpec) string {
	return s.FragAttr + "|" + s.PredAttr + "|" + agg.String() + "|Const"
}

// FindSites locates up to maxSites injectable pairs in tab, using mined
// patterns to ensure (i) the outlier fragment genuinely follows the
// constant-per-predictor trend, (ii) the coarser pattern over FragAttr
// alone also holds (so refinement reaches the counterbalance), and
// (iii) the receiving group sits at or below its fragment mean so the
// planted spike reads as a clean deviation.
func FindSites(tab *engine.Table, spec SiteSpec, patterns []*pattern.Mined, maxSites int) ([]Site, error) {
	if spec.MinOutlierCount == 0 {
		spec.MinOutlierCount = 10
	}
	if spec.MinCounterMean == 0 {
		spec.MinCounterMean = 6
	}
	agg := engine.AggSpec{Func: engine.Count}
	var target, coarse *pattern.Mined
	for _, p := range patterns {
		switch p.Pattern.Key() {
		case spec.targetKey(agg):
			target = p
		case spec.coarseKey(agg):
			coarse = p
		}
	}
	if target == nil || coarse == nil {
		return nil, fmt.Errorf("exp: required patterns not mined (need %q and %q)",
			spec.targetKey(agg), spec.coarseKey(agg))
	}
	qAttrs := spec.QuestionAttrs()
	grouped, err := tab.GroupBy(qAttrs, []engine.AggSpec{agg})
	if err != nil {
		return nil, err
	}

	// Canonical fragment order for target: sorted (FragAttr, TypeAttr).
	fragOrder := []string{spec.FragAttr, spec.TypeAttr}
	sort.Strings(fragOrder)
	fragOf := func(row value.Tuple) value.Tuple {
		// row layout: TypeAttr, FragAttr, PredAttr, count.
		byName := map[string]value.V{spec.TypeAttr: row[0], spec.FragAttr: row[1]}
		return value.Tuple{byName[fragOrder[0]], byName[fragOrder[1]]}
	}

	var sites []Site
	for _, row := range grouped.Rows() {
		if row[3].Int() < spec.MinOutlierCount {
			continue
		}
		if _, ok := target.Local(fragOf(row)); !ok {
			continue
		}
		if _, ok := coarse.Local(value.Tuple{row[1]}); !ok {
			continue
		}
		for _, other := range grouped.Rows() {
			if !value.Equal(other[1], row[1]) || !value.Equal(other[2], row[2]) ||
				value.Equal(other[0], row[0]) {
				continue
			}
			lm, ok := target.Local(fragOf(other))
			if !ok {
				continue
			}
			mu := lm.Model.Predict(nil)
			c := float64(other[3].Int())
			if mu < spec.MinCounterMean || c > mu || c < mu-2 {
				continue
			}
			sites = append(sites, Site{
				Outlier: value.Tuple{row[0], row[1], row[2]},
				Counter: value.Tuple{other[0], other[1], other[2]},
			})
			if len(sites) >= maxSites {
				return sites, nil
			}
			break // one counterbalance per outlier group
		}
	}
	return sites, nil
}

// Covers reports whether an explanation matches the ground-truth
// counterbalance on every question attribute it shares — the hit
// criterion of the Section-5.3 precision measurement. Coarser-schema
// explanations count only if they retain all question attributes.
func Covers(e explain.Explanation, qAttrs []string, gtTuple value.Tuple) bool {
	n := 0
	for i, a := range e.Attrs {
		for j, ga := range qAttrs {
			if a == ga {
				if !value.Equal(e.Tuple[i], gtTuple[j]) {
					return false
				}
				n++
			}
		}
	}
	return n == len(qAttrs)
}

// RandomQuestions samples n user questions from the result of grouping
// tab on groupBy, biased toward groups with large counts (the paper's
// worst-case bias) and with random directions.
func RandomQuestions(tab *engine.Table, groupBy []string, agg engine.AggSpec, n int, seed int64) ([]explain.UserQuestion, error) {
	grouped, err := tab.GroupBy(groupBy, []engine.AggSpec{agg})
	if err != nil {
		return nil, err
	}
	if grouped.NumRows() == 0 {
		return nil, fmt.Errorf("exp: empty query result")
	}
	rows := append([]value.Tuple(nil), grouped.Rows()...)
	aggIdx := len(groupBy)
	sort.Slice(rows, func(i, j int) bool {
		return value.Compare(rows[i][aggIdx], rows[j][aggIdx]) > 0
	})
	// Bias: draw from the top half of groups by count.
	pool := rows[:(len(rows)+1)/2]
	rng := rand.New(rand.NewSource(seed))
	out := make([]explain.UserQuestion, 0, n)
	for i := 0; i < n; i++ {
		row := pool[rng.Intn(len(pool))]
		dir := explain.Low
		if rng.Intn(2) == 1 {
			dir = explain.High
		}
		q, err := explain.QuestionFromRow(groupBy, agg, row, dir)
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}

// PrecisionConfig parameterizes the Section-5.3 ground-truth experiment.
type PrecisionConfig struct {
	// Table is the clean dataset to inject into.
	Table *engine.Table
	// Spec selects injection sites.
	Spec SiteSpec
	// Mining configures the measurement pass: the injected data is
	// re-mined with these (swept) thresholds before explaining.
	Mining mining.Options
	// SiteMining configures the site-discovery pass over the clean data.
	// Leave zero to reuse Mining. A sweep should pin SiteMining to one
	// lenient setting so every sweep point measures the same planted
	// ground truths.
	SiteMining mining.Options
	// NumQuestions is the number of injected outlier questions
	// (default 10).
	NumQuestions int
	// K is the explanation list length checked for the ground truth
	// (default 10).
	K int
	// Delta is the number of rows moved per injection (default 5).
	Delta int
	// Metric scores explanations; nil uses categorical distances.
	Metric *distance.Metric
}

// PrecisionResult reports how many injected counterbalances CAPE
// recovered.
type PrecisionResult struct {
	Questions int
	Found     int
}

// Precision is Found/Questions (0 when no questions ran).
func (r PrecisionResult) Precision() float64 {
	if r.Questions == 0 {
		return 0
	}
	return float64(r.Found) / float64(r.Questions)
}

// RunPrecision mines the clean data to find injection sites, then for
// each site: injects the outlier/counterbalance pair, re-mines the
// injected data with the configured thresholds, asks the "why low?"
// question, and checks whether the ground truth appears in the top-K.
func RunPrecision(cfg PrecisionConfig) (PrecisionResult, error) {
	if cfg.NumQuestions <= 0 {
		cfg.NumQuestions = 10
	}
	if cfg.K <= 0 {
		cfg.K = 10
	}
	if cfg.Delta <= 0 {
		cfg.Delta = 5
	}
	var res PrecisionResult

	siteMining := cfg.SiteMining
	if siteMining.MaxPatternSize == 0 && siteMining.Attributes == nil {
		siteMining = cfg.Mining
	}
	clean, err := mining.ARPMine(cfg.Table, siteMining)
	if err != nil {
		return res, err
	}
	sites, err := FindSites(cfg.Table, cfg.Spec, clean.Patterns, cfg.NumQuestions)
	if err != nil {
		return res, err
	}
	qAttrs := cfg.Spec.QuestionAttrs()
	for _, site := range sites {
		s, gt, err := plant(cfg.Table, qAttrs, site, cfg.Delta, cfg.Mining, cfg.Metric)
		if err != nil {
			return res, err
		}
		expls, _, err := explain.Generate(s.q, s.tab, s.patterns, explain.Options{K: cfg.K, Metric: s.metric})
		if err != nil {
			return res, err
		}
		res.Questions++
		for _, e := range expls {
			if Covers(e, qAttrs, gt.CounterTuple) {
				res.Found++
				break
			}
		}
	}
	return res, nil
}

// plant moves delta rows from site's outlier group to its
// counterbalance, re-mines the injected table with opt and asks why the
// outlier's count over qAttrs is low.
func plant(tab *engine.Table, qAttrs []string, site Site, delta int, opt mining.Options, metric *distance.Metric) (scenario, dataset.GroundTruth, error) {
	injected, gt, err := dataset.InjectCounterbalance(tab, qAttrs, site.Outlier, site.Counter, delta, "low")
	if err != nil {
		return scenario{}, gt, err
	}
	mined, err := mining.ARPMine(injected, opt)
	if err != nil {
		return scenario{}, gt, err
	}
	sel, err := injected.SelectEq(qAttrs, site.Outlier)
	if err != nil {
		return scenario{}, gt, err
	}
	q := explain.UserQuestion{
		GroupBy: qAttrs, Agg: countStar,
		Values: site.Outlier, AggValue: value.NewInt(int64(sel.NumRows())), Dir: explain.Low,
	}
	return scenario{tab: injected, patterns: mined.Patterns, q: q, metric: metric}, gt, nil
}
