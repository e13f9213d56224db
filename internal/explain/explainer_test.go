package explain

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"cape/internal/engine"
	"cape/internal/value"
)

// TestExplainerMatchesGenerate: the warm-cache path must return exactly
// what a cold GenOpt run returns.
func TestExplainerMatchesGenerate(t *testing.T) {
	tab := runningExample(t)
	pats := minePatterns(t, tab)
	opt := Options{K: 10, Metric: yearMetric()}
	ex := NewExplainer(tab, pats, opt)

	questions := []UserQuestion{
		sigkddQuestion(),
		{
			GroupBy:  []string{"author", "venue", "year"},
			Agg:      sigkddQuestion().Agg,
			Values:   value.Tuple{value.NewString("AX"), value.NewString("ICDE"), value.NewInt(2007)},
			AggValue: value.NewInt(7),
			Dir:      High,
		},
	}
	for qi, q := range questions {
		cold, _, err := GenOpt(q, tab, pats, opt)
		if err != nil {
			t.Fatal(err)
		}
		warm, _, err := ex.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(cold) != len(warm) {
			t.Fatalf("question %d: %d vs %d explanations", qi, len(cold), len(warm))
		}
		for i := range cold {
			if cold[i].Score != warm[i].Score || !cold[i].Tuple.Equal(warm[i].Tuple) {
				t.Errorf("question %d rank %d: %s vs %s", qi, i, cold[i], warm[i])
			}
		}
	}
	if ex.CachedGroupings() == 0 {
		t.Error("explainer cached nothing across two questions")
	}
}

// TestExplainerConcurrent hammers one Explainer from several goroutines;
// run under -race this verifies the shared cache locking.
func TestExplainerConcurrent(t *testing.T) {
	tab := runningExample(t)
	pats := minePatterns(t, tab)
	ex := NewExplainer(tab, pats, Options{K: 5, Metric: yearMetric()})
	q := sigkddQuestion()

	want, _, err := ex.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := ex.Explain(q)
			if err != nil {
				errs <- err
				return
			}
			if len(got) != len(want) || got[0].Score != want[0].Score {
				t.Errorf("concurrent result differs")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// countingRelation wraps a relation and counts the full group-bys per
// grouping (GroupBy and GroupByAccums calls, keyed like groupKey) and
// the row ranges read through ScanRows — the fold path of a retained
// grouping — made through it.
type countingRelation struct {
	engine.MutableRelation
	mu       sync.Mutex
	groupBys map[string]int
	scans    [][2]int
}

func newCountingRelation(r engine.MutableRelation) *countingRelation {
	return &countingRelation{MutableRelation: r, groupBys: make(map[string]int)}
}

func (c *countingRelation) countGroupBy(cols []string, aggs []engine.AggSpec) {
	key := strings.Join(cols, "\x1f")
	for _, a := range aggs {
		key += "\x1e" + a.String()
	}
	c.mu.Lock()
	c.groupBys[key]++
	c.mu.Unlock()
}

func (c *countingRelation) GroupBy(cols []string, aggs []engine.AggSpec) (*engine.Table, error) {
	c.countGroupBy(cols, aggs)
	return c.MutableRelation.GroupBy(cols, aggs)
}

func (c *countingRelation) GroupByAccums(cols []string, aggs []engine.AggSpec) (*engine.RetainedGroupBy, error) {
	c.countGroupBy(cols, aggs)
	return c.MutableRelation.GroupByAccums(cols, aggs)
}

func (c *countingRelation) ScanRows(lo, hi int, fn func(row value.Tuple) error) error {
	c.mu.Lock()
	c.scans = append(c.scans, [2]int{lo, hi})
	c.mu.Unlock()
	return c.MutableRelation.ScanRows(lo, hi, fn)
}

// counts returns the full group-bys per grouping since the last reset.
func (c *countingRelation) counts() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.groupBys)
}

// scanned returns the row ranges read through ScanRows since the last
// reset.
func (c *countingRelation) scanned() [][2]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.scans)
}

func (c *countingRelation) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.groupBys)
	c.scans = nil
}

// TestExplainerWarmScansNothing is the exact work gate of the warm serve
// path. Once an Explainer has answered every question of some shapes at
// one epoch, with k large enough that the bound prunes nothing, every
// grouping a question of those shapes can reach is cached: the
// refinements of each structurally relevant pattern, which include the
// pattern itself and so the grouping its NORM reads. A new question of
// those shapes must then touch the relation not at all — no group-by,
// no row scan — and after one append no grouping runs a full
// group-by: each one it reaches folds exactly the appended rows, once.
// The counts are exact on any machine and at any parallelism.
func TestExplainerWarmScansNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := randomBatchTable(rng, 300)
	pats := mineLenient(t, tab, []string{"author", "venue", "year"})
	rel := newCountingRelation(tab)
	opt := Options{K: 10, Metric: yearMetric(), Parallelism: 2}
	ex := NewExplainer(rel, pats, opt)
	count := engine.AggSpec{Func: engine.Count}

	var fresh []UserQuestion
	for _, g := range [][]string{{"author", "venue", "year"}, {"author", "year"}, {"venue", "year"}} {
		for _, q := range sampleQuestions(t, tab, g, tab.NumRows()) {
			if _, _, err := ex.ExplainOpts(q, Options{K: 1 << 30}); err != nil {
				t.Fatal(err)
			}
			// The question about the same group in the other direction
			// is a new one.
			if q.Dir == Low {
				q.Dir = High
			} else {
				q.Dir = Low
			}
			fresh = append(fresh, q)
		}
		computed := rel.counts()
		for _, pi := range ex.idx.Relevant(g, count) {
			for _, ref := range ex.idx.Refinements(pats[pi]) {
				if computed[groupKey(ref.Pattern)] == 0 {
					t.Fatalf("warm-up never computed %s, reachable from shape %v", ref.Pattern, g)
				}
			}
		}
	}

	ask := func(phase string) {
		t.Helper()
		rel.reset()
		for qi, q := range fresh {
			got, _, err := ex.Explain(q)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := GenOpt(q, tab, pats, Options{K: 10, Metric: yearMetric()})
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, fmt.Sprintf("%s q%d", phase, qi), want, got)
		}
	}
	ask("warm")
	if groupBys := rel.counts(); len(groupBys) != 0 || len(rel.scanned()) != 0 {
		t.Errorf("warm: %d new questions made %d group-bys and %d row scans, want none",
			len(fresh), len(groupBys), len(rel.scanned()))
	}
	var mu sync.Mutex
	folded := make(map[string]int)
	ex.cache.onCompute = func(key string) {
		mu.Lock()
		folded[key]++
		mu.Unlock()
	}

	// As the server does after an append, re-derive the patterns: their
	// local deviation extremes feed the score bound, which stale patterns
	// would not bound the appended data by.
	more := randomBatchTable(rand.New(rand.NewSource(4)), 60)
	before := tab.NumRows()
	if err := tab.AppendRows(more.Rows()); err != nil {
		t.Fatal(err)
	}
	pats = mineLenient(t, tab, []string{"author", "venue", "year"})
	ex.SetPatterns(pats)
	ask("appended")
	for key, n := range rel.counts() {
		t.Errorf("appended: grouping %q ran %d full group-bys, want 0", key, n)
	}
	scans := rel.scanned()
	if len(folded) == 0 || len(scans) != len(folded) {
		t.Errorf("appended: %d row scans for %d groupings caught up, want one each", len(scans), len(folded))
	}
	for key, n := range folded {
		if n != 1 {
			t.Errorf("appended: grouping %q caught up %d times, want 1", key, n)
		}
	}
	for _, sc := range scans {
		if sc != [2]int{before, tab.NumRows()} {
			t.Errorf("appended: a grouping read rows [%d, %d), want exactly the appended [%d, %d)",
				sc[0], sc[1], before, tab.NumRows())
		}
	}
}

// TestExplainerInvalidQuestion propagates validation errors.
func TestExplainerInvalidQuestion(t *testing.T) {
	tab := runningExample(t)
	pats := minePatterns(t, tab)
	ex := NewExplainer(tab, pats, Options{})
	if _, _, err := ex.Explain(UserQuestion{}); err == nil {
		t.Error("invalid question should error")
	}
}
