package exp

import (
	"fmt"
	"io"
	"strings"

	"cape/internal/baseline"
	"cape/internal/dataset"
	"cape/internal/distance"
	"cape/internal/engine"
	"cape/internal/explain"
	"cape/internal/mining"
	"cape/internal/pattern"
	"cape/internal/value"
)

// scenario is the input of one qualitative table: a table, the patterns
// mined over it, the question asked and the metric.
type scenario struct {
	tab      *engine.Table
	patterns []*pattern.Mined
	q        explain.UserQuestion
	metric   *distance.Metric
}

// table3: the running example of Tables 2–3 — top-10 explanations for
// "why is AX's SIGKDD 2007 publication count low?".
func table3(w io.Writer, timer Timer) error {
	tab := dataset.RunningExample()
	mined, err := mining.ARPMine(tab, mining.Options{
		MaxPatternSize: 3,
		Thresholds:     pattern.Thresholds{Theta: 0.5, LocalSupport: 3, Lambda: 0.3, GlobalSupport: 2},
		AggFuncs:       []engine.AggFunc{engine.Count},
	})
	if err != nil {
		return err
	}
	s := scenario{tab: tab, patterns: mined.Patterns, metric: dblpMetric(), q: explain.UserQuestion{
		GroupBy:  []string{"author", "venue", "year"},
		Agg:      countStar,
		Values:   value.Tuple{value.NewString("AX"), value.NewString("SIGKDD"), value.NewInt(2007)},
		AggValue: value.NewInt(1),
		Dir:      explain.Low,
	}}
	return s.cape(w, timer, 10)
}

// capeTable is Tables 4 and 5: CAPE's top-5 for the scenario's question.
func capeTable(w io.Writer, timer Timer, build func() (scenario, error)) error {
	s, err := build()
	if err != nil {
		return err
	}
	return s.cape(w, timer, 5)
}

// baselineTable is Tables 6 and 7: the Appendix-A baseline's top-5 for
// the same question as Tables 4 and 5.
func baselineTable(w io.Writer, timer Timer, build func() (scenario, error)) error {
	s, err := build()
	if err != nil {
		return err
	}
	return printRanked(w, timer, "baseline", s.q, func() ([]baseline.Explanation, error) {
		return baseline.Explain(s.q, s.tab, baseline.Options{K: 5, Metric: s.metric})
	})
}

func (s scenario) cape(w io.Writer, timer Timer, k int) error {
	return printRanked(w, timer, "CAPE", s.q, func() ([]explain.Explanation, error) {
		expls, _, err := explain.Generate(s.q, s.tab, s.patterns, explain.Options{K: k, Metric: s.metric})
		return expls, err
	})
}

// printRanked times one explanation list — the unit of work of Tables
// 3–7 — and prints it ranked under its question.
func printRanked[E fmt.Stringer](w io.Writer, timer Timer, name string, q explain.UserQuestion, run func() ([]E, error)) error {
	var expls []E
	_, _, err := timer(Case{Name: name, Run: func() (Outcome, error) {
		var err error
		expls, err = run()
		return Outcome{}, err
	}})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "question: %s\n\n", q)
	fmt.Fprintf(w, "%4s  %s\n", "rank", "explanation")
	for i, e := range expls {
		fmt.Fprintf(w, "%4d  %s\n", i+1, e)
	}
	return nil
}

// scenarioThresholds mine the qualitative tables' natural data.
var scenarioThresholds = pattern.Thresholds{Theta: 0.2, LocalSupport: 4, Lambda: 0.2, GlobalSupport: 5}

// dblpScenario asks Tables 4 and 6's question: the strongest natural
// "why high?" outlier of [author, venue] : year ~Const~> count(*).
func dblpScenario() (scenario, error) {
	return naturalScenario(dataset.GenerateDBLP(dataset.DBLPConfig{Rows: 20000, Seed: 2019}),
		[]string{"author", "venue", "year"}, []string{"author", "venue"}, explain.High, dblpMetric())
}

// crimeScenario asks Tables 5 and 7's question: the strongest natural
// "why low?" outlier of [community, type] : year ~Const~> count(*).
func crimeScenario() (scenario, error) {
	return naturalScenario(dataset.GenerateCrime(dataset.CrimeConfig{
		Rows: 20000, Seed: 2019, NumAttrs: 5, NumTypes: 8, NumCommunities: 15,
	}), []string{"type", "community", "year"}, []string{"community", "type"}, explain.Low, crimeMetric())
}

// naturalScenario mines tab over qAttrs and asks about the result tuple
// deviating most strongly in direction dir from the local models of
// the constant pattern fragAttrs : year — the kind of organic outlier
// the paper's qualitative tables discuss.
func naturalScenario(tab *engine.Table, qAttrs, fragAttrs []string, dir explain.Direction, metric *distance.Metric) (scenario, error) {
	mined, err := mining.ARPMine(tab, mining.Options{
		MaxPatternSize: 3,
		Attributes:     qAttrs,
		Thresholds:     scenarioThresholds,
		AggFuncs:       []engine.AggFunc{engine.Count},
	})
	if err != nil {
		return scenario{}, err
	}
	patternKey := strings.Join(fragAttrs, ",") + "|year|count(*)|Const"
	var target *pattern.Mined
	for _, p := range mined.Patterns {
		if p.Pattern.Key() == patternKey {
			target = p
			break
		}
	}
	if target == nil {
		return scenario{}, fmt.Errorf("pattern %q not mined", patternKey)
	}
	grouped, err := tab.GroupBy(qAttrs, []engine.AggSpec{countStar})
	if err != nil {
		return scenario{}, err
	}
	fragIdx, err := grouped.Schema().Indices(fragAttrs)
	if err != nil {
		return scenario{}, err
	}
	aggIdx := len(qAttrs)

	var best value.Tuple
	var bestDev float64
	frag := make(value.Tuple, len(fragIdx))
	for _, row := range grouped.Rows() {
		for i, ci := range fragIdx {
			frag[i] = row[ci]
		}
		lm, ok := target.Local(frag)
		if !ok {
			continue
		}
		y, _ := row[aggIdx].AsFloat()
		dev := y - lm.Model.Predict(nil)
		better := (dir == explain.High && dev > bestDev) ||
			(dir == explain.Low && dev < bestDev)
		if better {
			bestDev = dev
			best = row.Clone()
		}
	}
	if best == nil {
		return scenario{}, fmt.Errorf("no outlier found for %q", patternKey)
	}
	q, err := explain.QuestionFromRow(qAttrs, countStar, best, dir)
	if err != nil {
		return scenario{}, err
	}
	return scenario{tab: tab, patterns: mined.Patterns, q: q, metric: metric}, nil
}
