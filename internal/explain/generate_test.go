package explain

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"cape/internal/distance"
	"cape/internal/engine"
	"cape/internal/mining"
	"cape/internal/pattern"
	"cape/internal/regress"
	"cape/internal/value"
)

// runningExample builds a deterministic version of the paper's DBLP
// story: three authors publish a constant number of papers per venue per
// year over 2005–2009, except that AX published only 1 SIGKDD paper in
// 2007 (the outlier) while publishing 7 ICDE papers that year (the
// counterbalance). AX's yearly total stays exactly 12, so the coarse
// pattern [author]: year ~Const~> count(*) holds perfectly.
func runningExample(t testing.TB) *engine.Table {
	tab := engine.NewTable(engine.Schema{
		{Name: "author", Kind: value.String},
		{Name: "venue", Kind: value.String},
		{Name: "year", Kind: value.Int},
	})
	add := func(author, venue string, year int64, n int) {
		for i := 0; i < n; i++ {
			tab.MustAppend(value.Tuple{
				value.NewString(author), value.NewString(venue), value.NewInt(year),
			})
		}
	}
	venues := []string{"SIGKDD", "VLDB", "ICDE"}
	for year := int64(2005); year <= 2009; year++ {
		for _, v := range venues {
			n := 4
			if v == "SIGKDD" && year == 2007 {
				n = 1
			}
			if v == "ICDE" && year == 2007 {
				n = 7
			}
			add("AX", v, year, n)
			add("AY", v, year, 3)
			add("AZ", v, year, 3)
		}
	}
	return tab
}

func minePatterns(t testing.TB, tab *engine.Table) []*pattern.Mined {
	res, err := mining.ARPMine(tab, mining.Options{
		MaxPatternSize: 3,
		Thresholds:     pattern.Thresholds{Theta: 0.5, LocalSupport: 3, Lambda: 0.3, GlobalSupport: 2},
		AggFuncs:       []engine.AggFunc{engine.Count},
		Models:         []regress.ModelType{regress.Const},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("mining found no patterns")
	}
	return res.Patterns
}

func sigkddQuestion() UserQuestion {
	return UserQuestion{
		GroupBy: []string{"author", "venue", "year"},
		Agg:     engine.AggSpec{Func: engine.Count},
		Values: value.Tuple{
			value.NewString("AX"), value.NewString("SIGKDD"), value.NewInt(2007),
		},
		AggValue: value.NewInt(1),
		Dir:      Low,
	}
}

func yearMetric() *distance.Metric {
	return distance.NewMetric().SetFunc("year", distance.Numeric{Scale: 4})
}

func TestRunningExampleTopExplanation(t *testing.T) {
	tab := runningExample(t)
	pats := minePatterns(t, tab)
	expls, stats, err := Generate(sigkddQuestion(), tab, pats, Options{K: 10, Metric: yearMetric()})
	if err != nil {
		t.Fatal(err)
	}
	if len(expls) == 0 {
		t.Fatal("no explanations produced")
	}
	if stats.RelevantPatterns == 0 {
		t.Error("no relevant patterns counted")
	}
	top := expls[0]
	// The strongest counterbalance is AX's 7 ICDE papers in 2007.
	venue, year := findAttr(top, "venue"), findAttr(top, "year")
	if venue == nil || venue.Str() != "ICDE" || year == nil || year.Int() != 2007 {
		t.Errorf("top explanation = %s, want ICDE 2007", top)
	}
	if top.Deviation <= 0 {
		t.Errorf("low question needs positive deviation, got %g", top.Deviation)
	}
	for i := 1; i < len(expls); i++ {
		if expls[i].Score > expls[i-1].Score {
			t.Errorf("explanations not sorted by score at %d", i)
		}
	}
}

func findAttr(e Explanation, attr string) *value.V {
	for i, a := range e.Attrs {
		if a == attr {
			v := e.Tuple[i]
			return &v
		}
	}
	return nil
}

// TestNaiveOptEquivalence: the bound-pruned generator must return exactly
// the brute-force top-k.
func TestNaiveOptEquivalence(t *testing.T) {
	tab := runningExample(t)
	pats := minePatterns(t, tab)
	for _, k := range []int{1, 3, 10, 50} {
		opt := Options{K: k, Metric: yearMetric()}
		naive, _, err := GenNaive(sigkddQuestion(), tab, pats, opt)
		if err != nil {
			t.Fatal(err)
		}
		fast, _, err := GenOpt(sigkddQuestion(), tab, pats, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(naive) != len(fast) {
			t.Fatalf("k=%d: %d vs %d explanations", k, len(naive), len(fast))
		}
		for i := range naive {
			if naive[i].Score != fast[i].Score || !naive[i].Tuple.Equal(fast[i].Tuple) {
				t.Errorf("k=%d rank %d: %s vs %s", k, i, naive[i], fast[i])
			}
		}
	}
}

func TestHighDirectionFindsNegativeDeviations(t *testing.T) {
	tab := runningExample(t)
	pats := minePatterns(t, tab)
	q := UserQuestion{
		GroupBy: []string{"author", "venue", "year"},
		Agg:     engine.AggSpec{Func: engine.Count},
		Values: value.Tuple{
			value.NewString("AX"), value.NewString("ICDE"), value.NewInt(2007),
		},
		AggValue: value.NewInt(7),
		Dir:      High,
	}
	expls, _, err := Generate(q, tab, pats, Options{K: 5, Metric: yearMetric()})
	if err != nil {
		t.Fatal(err)
	}
	if len(expls) == 0 {
		t.Fatal("no explanations for high question")
	}
	for _, e := range expls {
		if e.Deviation >= 0 {
			t.Errorf("high question requires negative deviations: %s", e)
		}
	}
	// The strongest counterbalance is AX's single SIGKDD paper in 2007.
	top := expls[0]
	if v := findAttr(top, "venue"); v == nil || v.Str() != "SIGKDD" {
		t.Errorf("top high-explanation = %s, want SIGKDD 2007", top)
	}
}

func TestQuestionTupleExcluded(t *testing.T) {
	tab := runningExample(t)
	pats := minePatterns(t, tab)
	q := sigkddQuestion()
	expls, _, err := Generate(q, tab, pats, Options{K: 1000, Metric: yearMetric()})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range expls {
		if !sameSet(e.Attrs, q.GroupBy) {
			continue
		}
		proj, _ := q.Project(e.Attrs)
		if e.Tuple.Equal(proj) {
			t.Errorf("question tuple returned as its own explanation: %s", e)
		}
	}
}

func TestDeviationDirectionConsistency(t *testing.T) {
	tab := runningExample(t)
	pats := minePatterns(t, tab)
	expls, _, err := Generate(sigkddQuestion(), tab, pats, Options{K: 1000, Metric: yearMetric()})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range expls {
		if e.Deviation <= 0 {
			t.Errorf("low question: non-positive deviation survived: %s", e)
		}
		if e.Score <= 0 {
			t.Errorf("scores must be positive: %s", e)
		}
	}
}

func TestOptPrunesSomething(t *testing.T) {
	tab := runningExample(t)
	pats := minePatterns(t, tab)
	_, statsN, err := GenNaive(sigkddQuestion(), tab, pats, Options{K: 1, Metric: yearMetric()})
	if err != nil {
		t.Fatal(err)
	}
	_, statsO, err := GenOpt(sigkddQuestion(), tab, pats, Options{K: 1, Metric: yearMetric()})
	if err != nil {
		t.Fatal(err)
	}
	if statsN.PrunedRefinements != 0 {
		t.Error("naive must not prune")
	}
	if statsO.Candidates > statsN.Candidates {
		t.Errorf("opt checked more candidates (%d) than naive (%d)", statsO.Candidates, statsN.Candidates)
	}
}

func TestGenerateInvalidQuestion(t *testing.T) {
	tab := runningExample(t)
	bad := UserQuestion{GroupBy: nil}
	if _, _, err := Generate(bad, tab, nil, Options{}); err == nil {
		t.Error("invalid question should error")
	}
	dup := UserQuestion{
		GroupBy:  []string{"a", "a"},
		Values:   value.Tuple{value.NewInt(1), value.NewInt(2)},
		Agg:      engine.AggSpec{Func: engine.Count},
		AggValue: value.NewInt(1),
	}
	if _, _, err := Generate(dup, tab, nil, Options{}); err == nil {
		t.Error("duplicate group-by attribute should error")
	}
	mismatch := UserQuestion{
		GroupBy:  []string{"a", "b"},
		Values:   value.Tuple{value.NewInt(1)},
		Agg:      engine.AggSpec{Func: engine.Count},
		AggValue: value.NewInt(1),
	}
	if _, _, err := Generate(mismatch, tab, nil, Options{}); err == nil {
		t.Error("arity mismatch should error")
	}
}

func TestNoPatternsNoExplanations(t *testing.T) {
	tab := runningExample(t)
	expls, stats, err := Generate(sigkddQuestion(), tab, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(expls) != 0 || stats.RelevantPatterns != 0 {
		t.Error("no patterns should produce no explanations")
	}
}

func TestParseDirection(t *testing.T) {
	if d, err := ParseDirection("LOW"); err != nil || d != Low {
		t.Errorf("ParseDirection(LOW) = %v, %v", d, err)
	}
	if d, err := ParseDirection("high"); err != nil || d != High {
		t.Errorf("ParseDirection(high) = %v, %v", d, err)
	}
	if _, err := ParseDirection("sideways"); err == nil {
		t.Error("bad direction should error")
	}
	if Low.String() != "low" || High.String() != "high" {
		t.Error("Direction.String wrong")
	}
}

func TestQuestionHelpers(t *testing.T) {
	q := sigkddQuestion()
	if v, ok := q.ValueOf("venue"); !ok || v.Str() != "SIGKDD" {
		t.Errorf("ValueOf(venue) = %v, %v", v, ok)
	}
	if _, ok := q.ValueOf("ghost"); ok {
		t.Error("ValueOf unknown attribute should fail")
	}
	proj, ok := q.Project([]string{"year", "author"})
	if !ok || proj[0].Int() != 2007 || proj[1].Str() != "AX" {
		t.Errorf("Project = %v, %v", proj, ok)
	}
	if _, ok := q.Project([]string{"author", "nope"}); ok {
		t.Error("Project with unknown attribute should fail")
	}
	dt := q.DistTuple()
	if len(dt) != 3 || dt["author"].Str() != "AX" {
		t.Errorf("DistTuple = %v", dt)
	}
	s := q.String()
	if s == "" || s[len(s)-1] != '?' {
		t.Errorf("String() = %q", s)
	}
}

func TestQuestionFromRow(t *testing.T) {
	row := value.Tuple{value.NewString("AX"), value.NewInt(2007), value.NewInt(5)}
	q, err := QuestionFromRow([]string{"author", "year"}, engine.AggSpec{Func: engine.Count}, row, High)
	if err != nil {
		t.Fatal(err)
	}
	if q.AggValue.Int() != 5 || q.Values[1].Int() != 2007 || q.Dir != High {
		t.Errorf("QuestionFromRow = %+v", q)
	}
	if _, err := QuestionFromRow([]string{"a", "b"}, engine.AggSpec{Func: engine.Count}, row[:2], Low); err == nil {
		t.Error("arity mismatch should error")
	}
}

func TestTopKDedupKeepsBest(t *testing.T) {
	tk := newTopK(3)
	p := pattern.Pattern{F: []string{"f"}, V: []string{"v"}, Agg: engine.AggSpec{Func: engine.Count}, Model: regress.Const}
	mk := func(score float64, val int64) Explanation {
		return Explanation{
			Refined: p, Attrs: []string{"f", "v"},
			Tuple: value.Tuple{value.NewInt(val), value.NewInt(0)},
			Score: score,
		}
	}
	tk.offer(mk(1.0, 1))
	tk.offer(mk(5.0, 1)) // same tuple, better score: replaces
	tk.offer(mk(2.0, 1)) // same tuple, worse: ignored
	out := tk.sorted()
	if len(out) != 1 || out[0].Score != 5.0 {
		t.Fatalf("dedup failed: %v", out)
	}
	tk.offer(mk(3.0, 2))
	tk.offer(mk(4.0, 3))
	tk.offer(mk(6.0, 4)) // evicts score 3
	out = tk.sorted()
	if len(out) != 3 {
		t.Fatalf("topK size = %d", len(out))
	}
	if out[0].Score != 6 || out[1].Score != 5 || out[2].Score != 4 {
		t.Errorf("topK order = %v %v %v", out[0].Score, out[1].Score, out[2].Score)
	}
	if min, full := tk.minScore(); !full || min != 4 {
		t.Errorf("minScore = %g, %v", min, full)
	}

	// Held: 6 (tuple 4), 5 (1), 4 (3); tuple 2 was evicted at score 3.
	// An evicted key coming back lower, at its old score, or higher but
	// still under the k-th score is dropped; above the k-th score it is a
	// fresh candidate and evicts the k-th.
	for _, score := range []float64{2, 3, 3.5} {
		tk.offer(mk(score, 2))
		if got := scoresOf(tk.sorted()); got != "6 5 4" {
			t.Errorf("evicted key back at %g: held %s, want 6 5 4", score, got)
		}
	}
	tk.offer(mk(4.5, 2))
	if got := scoresOf(tk.sorted()); got != "6 5 4.5" {
		t.Errorf("evicted key back at 4.5: held %s, want 6 5 4.5", got)
	}
	// At exactly the k-th score the key order decides: tuple 3 sorts
	// after the held tuple 2 and is dropped, tuple 0 sorts before it and
	// evicts it.
	tk.offer(mk(4.5, 3))
	tk.offer(mk(4.5, 0))
	out = tk.sorted()
	if got := scoresOf(out); got != "6 5 4.5" || out[2].Tuple[0].Int() != 0 {
		t.Errorf("k-th score ties: held %s (last tuple %v), want 6 5 4.5 with tuple 0", got, out[2].Tuple)
	}

	// Equal-score duplicates from two relevant patterns keep the smaller
	// relevant-pattern key, whichever arrives first.
	pa := pattern.Pattern{F: []string{"a"}, V: []string{"v"}, Agg: p.Agg, Model: regress.Const}
	pb := pattern.Pattern{F: []string{"b"}, V: []string{"v"}, Agg: p.Agg, Model: regress.Const}
	for _, order := range [][]pattern.Pattern{{pa, pb}, {pb, pa}} {
		tk := newTopK(2)
		for _, rp := range order {
			e := mk(7, 9)
			e.Relevant = rp
			tk.offer(e)
		}
		if out := tk.sorted(); len(out) != 1 || out[0].Relevant.Key() != pa.Key() {
			t.Errorf("equal-score duplicate, order %s first: kept %v", order[0], out)
		}
	}
	t.Run("arrival order", testTopKArrivalOrder)
}

func scoresOf(es []Explanation) string {
	s := make([]string, len(es))
	for i, e := range es {
		s[i] = fmt.Sprint(e.Score)
	}
	return strings.Join(s, " ")
}

// testTopKArrivalOrder: the kept top-k is the best k of the best entry
// per (P', t'), so any arrival order — sequential or through concurrent
// sharedTopK offers — keeps the same explanations, field for field. The
// offers repeat keys across relevant patterns at equal and different
// scores, many below the final k-th score, so entries are evicted and
// come back.
func testTopKArrivalOrder(t *testing.T) {
	p := pattern.Pattern{F: []string{"f"}, V: []string{"v"}, Agg: engine.AggSpec{Func: engine.Count}, Model: regress.Const}
	rels := []pattern.Pattern{
		{F: []string{"a"}, Agg: p.Agg, Model: regress.Const},
		{F: []string{"b"}, Agg: p.Agg, Model: regress.Const},
		{F: []string{"c"}, Agg: p.Agg, Model: regress.Const},
	}
	rng := rand.New(rand.NewSource(1))
	var offers []Explanation
	for i := 0; i < 400; i++ {
		offers = append(offers, Explanation{
			Relevant: rels[rng.Intn(len(rels))],
			Refined:  p, Attrs: []string{"f", "v"},
			Tuple: value.Tuple{value.NewInt(int64(rng.Intn(40))), value.NewInt(0)},
			Score: float64(rng.Intn(12)),
		})
	}
	want := newTopK(5)
	for _, e := range offers {
		want.offer(e)
	}
	for round := 0; round < 20; round++ {
		perm := rng.Perm(len(offers))
		seq := newTopK(5)
		shared := newSharedTopK(5)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(perm); i += 4 {
					shared.offer(offers[perm[i]])
				}
			}(w)
		}
		for _, i := range perm {
			seq.offer(offers[i])
		}
		wg.Wait()
		requireIdentical(t, fmt.Sprintf("round %d sequential", round), want.sorted(), seq.sorted())
		requireIdentical(t, fmt.Sprintf("round %d shared", round), want.sorted(), shared.tk.sorted())
	}
}

func TestTopKMinScoreNotFull(t *testing.T) {
	tk := newTopK(5)
	if _, full := tk.minScore(); full {
		t.Error("empty topK should not report full")
	}
}

func TestExplanationString(t *testing.T) {
	e := Explanation{
		Relevant: pattern.Pattern{F: []string{"a"}, V: []string{"y"}, Agg: engine.AggSpec{Func: engine.Count}, Model: regress.Const},
		Refined:  pattern.Pattern{F: []string{"a", "v"}, V: []string{"y"}, Agg: engine.AggSpec{Func: engine.Count}, Model: regress.Const},
		Attrs:    []string{"a", "v", "y"},
		Tuple:    value.Tuple{value.NewString("AX"), value.NewString("ICDE"), value.NewInt(2007)},
		AggValue: value.NewInt(6),
		Score:    13.78,
	}
	s := e.String()
	if s == "" {
		t.Error("empty String()")
	}
	for _, want := range []string{"ICDE", "2007", "13.78"} {
		if !contains(s, want) {
			t.Errorf("String() %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestVisitOrderResultEquivalence: both NORM visit orders must return the
// same top-k (order only affects pruning efficiency, not correctness),
// and ascending must never check more candidates.
func TestVisitOrderResultEquivalence(t *testing.T) {
	tab := runningExample(t)
	pats := minePatterns(t, tab)
	asc, ascStats, err := GenOpt(sigkddQuestion(), tab, pats, Options{K: 5, Metric: yearMetric()})
	if err != nil {
		t.Fatal(err)
	}
	desc, descStats, err := GenOpt(sigkddQuestion(), tab, pats, Options{K: 5, Metric: yearMetric(), DescendingNorm: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(asc) != len(desc) {
		t.Fatalf("lengths differ: %d vs %d", len(asc), len(desc))
	}
	for i := range asc {
		if asc[i].Score != desc[i].Score || !asc[i].Tuple.Equal(desc[i].Tuple) {
			t.Errorf("rank %d differs: %s vs %s", i, asc[i], desc[i])
		}
	}
	if ascStats.Candidates > descStats.Candidates {
		t.Errorf("ascending order checked more candidates (%d) than descending (%d)",
			ascStats.Candidates, descStats.Candidates)
	}
}

// TestTopKPrefixProperty: the top-k list must be a prefix of the
// top-(k+n) list — growing K only appends.
func TestTopKPrefixProperty(t *testing.T) {
	tab := runningExample(t)
	pats := minePatterns(t, tab)
	var prev []Explanation
	for _, k := range []int{1, 2, 5, 10, 25} {
		cur, _, err := Generate(sigkddQuestion(), tab, pats, Options{K: k, Metric: yearMetric()})
		if err != nil {
			t.Fatal(err)
		}
		for i := range prev {
			if i >= len(cur) {
				t.Fatalf("K=%d list shorter than previous", k)
			}
			if prev[i].Score != cur[i].Score || !prev[i].Tuple.Equal(cur[i].Tuple) {
				t.Errorf("K=%d: rank %d changed: %s vs %s", k, i, prev[i], cur[i])
			}
		}
		prev = cur
	}
}
