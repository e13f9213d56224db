package cape

import (
	"reflect"
	"strings"
	"testing"
)

func exampleSession(t testing.TB) *Session {
	s := NewSession(RunningExample())
	s.SetMetric(NewMetric().SetFunc("year", NumericDistance{Scale: 4}))
	err := s.Mine(MiningOptions{
		MaxPatternSize: 3,
		Thresholds:     Thresholds{Theta: 0.5, LocalSupport: 3, Lambda: 0.3, GlobalSupport: 2},
		AggFuncs:       []AggFunc{AggCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionEndToEnd(t *testing.T) {
	s := exampleSession(t)
	if len(s.Patterns()) == 0 {
		t.Fatal("no patterns mined")
	}
	if s.MiningResult() == nil || s.MiningResult().Candidates == 0 {
		t.Error("mining result statistics missing")
	}
	expls, stats, err := s.Ask(
		[]string{"author", "venue", "year"},
		Count(),
		Tuple{String("AX"), String("SIGKDD"), Int(2007)},
		Low,
		ExplainOptions{K: 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RelevantPatterns == 0 {
		t.Error("no relevant patterns")
	}
	if len(expls) == 0 {
		t.Fatal("no explanations")
	}
	top := expls[0].String()
	if !strings.Contains(top, "ICDE") || !strings.Contains(top, "2007") {
		t.Errorf("top explanation = %s, want the ICDE 2007 counterbalance", top)
	}
}

func TestSessionAskUnknownTuple(t *testing.T) {
	s := exampleSession(t)
	_, _, err := s.Ask(
		[]string{"author", "venue", "year"},
		Count(),
		Tuple{String("NOBODY"), String("X"), Int(1900)},
		Low,
		ExplainOptions{},
	)
	if err == nil {
		t.Error("asking about a non-result tuple should error")
	}
}

func TestSessionExplainBeforeMine(t *testing.T) {
	s := NewSession(RunningExample())
	_, _, err := s.Explain(Question{}, ExplainOptions{})
	if err == nil {
		t.Error("Explain before Mine should error")
	}
}

func TestSessionSetPatterns(t *testing.T) {
	s := exampleSession(t)
	sub := s.Patterns()[:1]
	s2 := NewSession(s.Table())
	s2.SetPatterns(sub)
	q := Question{
		GroupBy:  []string{"author", "venue", "year"},
		Agg:      Count(),
		Values:   Tuple{String("AX"), String("SIGKDD"), Int(2007)},
		AggValue: Int(1),
		Dir:      Low,
	}
	if _, _, err := s2.Explain(q, ExplainOptions{K: 5}); err != nil {
		t.Errorf("Explain with installed patterns failed: %v", err)
	}
}

// TestSessionExplainsThroughWarmExplainer: a session's answers equal
// the one-shot Explain, ExplainBatch's equal Explain's, and asking the
// same question again reads only groupings the first ask cached.
func TestSessionExplainsThroughWarmExplainer(t *testing.T) {
	s := exampleSession(t)
	q, err := QuestionFromRow([]string{"author", "venue", "year"}, Count(),
		Tuple{String("AX"), String("SIGKDD"), Int(2007), Int(1)}, Low)
	if err != nil {
		t.Fatal(err)
	}
	opt := ExplainOptions{K: 10}
	want, wantStats, err := Explain(q, s.Table(), s.Patterns(),
		ExplainOptions{K: 10, Metric: NewMetric().SetFunc("year", NumericDistance{Scale: 4})})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := s.Explain(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || *stats != *wantStats {
		t.Fatalf("session answer differs from Explain:\n got %v %+v\nwant %v %+v", got, *stats, want, *wantStats)
	}
	cached := s.explainer.CachedGroupings()
	if cached == 0 {
		t.Fatal("the first question cached no grouping")
	}
	batch, _, err := s.ExplainBatch([]Question{q}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch[0], want) {
		t.Errorf("session batch answer differs from Explain:\n got %v\nwant %v", batch[0], want)
	}
	if n := s.explainer.CachedGroupings(); n != cached {
		t.Errorf("asking again grew the grouping cache from %d to %d", cached, n)
	}
}

func TestValueConstructors(t *testing.T) {
	if Int(3).Int() != 3 || Float(1.5).Float() != 1.5 || String("x").Str() != "x" || !Null().IsNull() {
		t.Error("value constructors broken")
	}
}

func TestAggConstructors(t *testing.T) {
	if Count().String() != "count(*)" {
		t.Errorf("Count() = %s", Count())
	}
	if Sum("x").String() != "sum(x)" {
		t.Errorf("Sum(x) = %s", Sum("x"))
	}
}

func TestBaselineFacade(t *testing.T) {
	s := exampleSession(t)
	q := Question{
		GroupBy:  []string{"author", "venue", "year"},
		Agg:      Count(),
		Values:   Tuple{String("AX"), String("SIGKDD"), Int(2007)},
		AggValue: Int(1),
		Dir:      Low,
	}
	expls, err := ExplainBaseline(q, s.Table(), BaselineOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(expls) == 0 {
		t.Error("baseline produced nothing")
	}
}

func TestGeneratorsFacade(t *testing.T) {
	dblp := GenerateDBLP(DBLPConfig{Rows: 200, Seed: 1})
	if dblp.NumRows() != 200 {
		t.Error("GenerateDBLP facade broken")
	}
	crime := GenerateCrime(CrimeConfig{Rows: 200, Seed: 1, NumAttrs: 5})
	if crime.NumRows() != 200 || len(crime.Schema()) != 5 {
		t.Error("GenerateCrime facade broken")
	}
}

func TestInjectFacade(t *testing.T) {
	tab := RunningExample()
	attrs := []string{"author", "venue", "year"}
	out := Tuple{String("AY"), String("VLDB"), Int(2006)}
	ctr := Tuple{String("AY"), String("ICDE"), Int(2006)}
	injected, gt, err := InjectCounterbalance(tab, attrs, out, ctr, 1, "low")
	if err != nil {
		t.Fatal(err)
	}
	if injected.NumRows() != tab.NumRows() || gt.Delta != 1 {
		t.Error("InjectCounterbalance facade broken")
	}
}

func TestMinerVariantsFacade(t *testing.T) {
	tab := RunningExample()
	opt := MiningOptions{
		MaxPatternSize: 2,
		Thresholds:     Thresholds{Theta: 0.3, LocalSupport: 2, Lambda: 0.3, GlobalSupport: 2},
		AggFuncs:       []AggFunc{AggCount},
	}
	for name, mine := range map[string]func(*Table, MiningOptions) (*MiningResult, error){
		"naive":    MinePatternsNaive,
		"sharegrp": MinePatternsShareGrp,
		"cube":     MinePatternsCube,
		"arpmine":  MinePatterns,
	} {
		res, err := mine(tab, opt)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(res.Patterns) == 0 {
			t.Errorf("%s found no patterns", name)
		}
	}
}

func TestSessionAutoWidenPatternSize(t *testing.T) {
	s := NewSession(RunningExample())
	s.SetMetric(NewMetric().SetFunc("year", NumericDistance{Scale: 4}))
	s.SetAutoWidenPatternSize(true)
	// Mine deliberately narrow: ψ=2 cannot produce patterns whose F∪V
	// covers a 3-attribute question at full width.
	err := s.Mine(MiningOptions{
		MaxPatternSize: 2,
		Thresholds:     Thresholds{Theta: 0.5, LocalSupport: 3, Lambda: 0.3, GlobalSupport: 2},
		AggFuncs:       []AggFunc{AggCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	narrow := len(s.Patterns())
	_, _, err = s.Ask(
		[]string{"author", "venue", "year"}, Count(),
		Tuple{String("AX"), String("SIGKDD"), Int(2007)},
		Low, ExplainOptions{K: 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Patterns()) <= narrow {
		t.Errorf("auto-widen did not re-mine: %d patterns before and after", narrow)
	}
	// The widened pool must include a full-width pattern.
	found := false
	for _, m := range s.Patterns() {
		if len(m.Pattern.GroupAttrs()) == 3 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no ψ=3 pattern after auto-widening")
	}
}

func TestSessionNoAutoWidenByDefault(t *testing.T) {
	s := NewSession(RunningExample())
	err := s.Mine(MiningOptions{
		MaxPatternSize: 2,
		Thresholds:     Thresholds{Theta: 0.5, LocalSupport: 3, Lambda: 0.3, GlobalSupport: 2},
		AggFuncs:       []AggFunc{AggCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := len(s.Patterns())
	if _, _, err := s.Ask(
		[]string{"author", "venue", "year"}, Count(),
		Tuple{String("AX"), String("SIGKDD"), Int(2007)},
		Low, ExplainOptions{K: 5},
	); err != nil {
		t.Fatal(err)
	}
	if len(s.Patterns()) != before {
		t.Error("Ask re-mined without auto-widen enabled")
	}
}

func TestGeneralizeFacade(t *testing.T) {
	s := exampleSession(t)
	q := Question{
		GroupBy:  []string{"author", "venue", "year"},
		Agg:      Count(),
		Values:   Tuple{String("AX"), String("SIGKDD"), Int(2007)},
		AggValue: Int(1),
		Dir:      Low,
	}
	gens, err := Generalize(q, s.Table(), s.Patterns(), ExplainOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gens {
		if g.Deviation >= 0 {
			t.Errorf("low question generalization must deviate negatively: %s", g)
		}
	}
}

func TestInterventionFacade(t *testing.T) {
	tab := RunningExample()
	low := Question{
		GroupBy:  []string{"author", "venue", "year"},
		Agg:      Count(),
		Values:   Tuple{String("AX"), String("SIGKDD"), Int(2007)},
		AggValue: Int(1),
		Dir:      Low,
	}
	if _, err := ExplainIntervention(low, tab, InterventionOptions{}); err != ErrInterventionLowQuestion {
		t.Errorf("low question error = %v, want ErrInterventionLowQuestion", err)
	}
	high := low
	high.Values = Tuple{String("AX"), String("ICDE"), Int(2007)}
	high.AggValue = Int(7)
	high.Dir = High
	if _, err := ExplainIntervention(high, tab, InterventionOptions{}); err != nil {
		t.Errorf("high question: %v", err)
	}
}

func TestHTTPHandlerFacade(t *testing.T) {
	h := NewHTTPHandler()
	if h == nil {
		t.Fatal("nil handler")
	}
	h.AddTable("t", RunningExample())
	out, err := RunSQL("SELECT count(*) FROM t", SQLCatalog{"t": RunningExample()})
	if err != nil || out.Row(0)[0].Int() != 150 {
		t.Errorf("RunSQL = %v, %v", out, err)
	}
	if _, _, err := ParseAggregateQuery("SELECT a, count(*) FROM t GROUP BY a"); err != nil {
		t.Errorf("ParseAggregateQuery: %v", err)
	}
	if _, _, err := ParseAggregateQuery("SELECT a FROM t"); err == nil {
		t.Error("non-aggregate query should error")
	}
}

func TestSessionSaveLoadPatterns(t *testing.T) {
	s := exampleSession(t)
	path := t.TempDir() + "/patterns.json"
	if err := s.SavePatterns(path); err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(RunningExample())
	s2.SetMetric(NewMetric().SetFunc("year", NumericDistance{Scale: 4}))
	if err := s2.LoadPatterns(path); err != nil {
		t.Fatal(err)
	}
	if len(s2.Patterns()) != len(s.Patterns()) {
		t.Fatalf("loaded %d patterns, saved %d", len(s2.Patterns()), len(s.Patterns()))
	}
	expls, _, err := s2.Ask(
		[]string{"author", "venue", "year"}, Count(),
		Tuple{String("AX"), String("SIGKDD"), Int(2007)},
		Low, ExplainOptions{K: 1},
	)
	if err != nil || len(expls) == 0 {
		t.Fatalf("explain with loaded patterns: %v, %d expls", err, len(expls))
	}
	// Fresh sessions refuse to save before mining.
	if err := NewSession(RunningExample()).SavePatterns(path); err == nil {
		t.Error("SavePatterns before Mine should error")
	}
	if err := s2.LoadPatterns(t.TempDir() + "/missing.json"); err == nil {
		t.Error("loading a missing file should error")
	}
}
