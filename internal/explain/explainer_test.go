package explain

import (
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"cape/internal/engine"
	"cape/internal/value"
)

// TestExplainerMatchesGenerate: the warm-cache path must return exactly
// what a cold Generate run returns.
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
		cold, _, err := Generate(q, tab, pats, opt)
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

// countingRelation wraps a relation and counts the SelectEq calls, and
// the GroupBy calls per grouping (keyed like groupKey), made through it.
type countingRelation struct {
	engine.Relation
	mu       sync.Mutex
	selects  int
	groupBys map[string]int
}

func newCountingRelation(r engine.Relation) *countingRelation {
	return &countingRelation{Relation: r, groupBys: make(map[string]int)}
}

func (c *countingRelation) SelectEq(cols []string, vals value.Tuple) (*engine.Table, error) {
	c.mu.Lock()
	c.selects++
	c.mu.Unlock()
	return c.Relation.SelectEq(cols, vals)
}

func (c *countingRelation) GroupBy(cols []string, aggs []engine.AggSpec) (*engine.Table, error) {
	key := strings.Join(cols, "\x1f")
	for _, a := range aggs {
		key += "\x1e" + a.String()
	}
	c.mu.Lock()
	c.groupBys[key]++
	c.mu.Unlock()
	return c.Relation.GroupBy(cols, aggs)
}

// counts returns the SelectEq calls and the GroupBy calls per grouping
// since the last reset.
func (c *countingRelation) counts() (int, map[string]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.selects, maps.Clone(c.groupBys)
}

func (c *countingRelation) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.selects = 0
	clear(c.groupBys)
}

// TestExplainerWarmScansNothing is the exact work gate of the warm serve
// path. Once an Explainer has answered every question of some shapes at
// one epoch, with k large enough that the bound prunes nothing, every
// grouping a question of those shapes can reach is cached: the
// refinements of each structurally relevant pattern, which include the
// pattern itself and so the grouping its NORM reads. A new question of
// those shapes must then touch the relation not at all — no SelectEq, no
// GroupBy — and after one append each grouping may be recomputed at most
// once. The counts are exact on any machine and at any parallelism.
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
		_, computed := rel.counts()
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
	if selects, groupBys := rel.counts(); selects != 0 || len(groupBys) != 0 {
		t.Errorf("warm: %d new questions made %d SelectEq and %d GroupBy calls, want 0 and 0",
			len(fresh), selects, len(groupBys))
	}

	// As the server does after an append, re-derive the patterns: their
	// local deviation extremes feed the score bound, which stale patterns
	// would not bound the appended data by.
	more := randomBatchTable(rand.New(rand.NewSource(4)), 60)
	if err := tab.AppendRows(more.Rows()); err != nil {
		t.Fatal(err)
	}
	pats = mineLenient(t, tab, []string{"author", "venue", "year"})
	ex.SetPatterns(pats)
	ask("appended")
	selects, groupBys := rel.counts()
	if selects != 0 {
		t.Errorf("appended: %d SelectEq calls, want 0", selects)
	}
	for key, n := range groupBys {
		if n > 1 {
			t.Errorf("appended: grouping %q computed %d times, want at most 1", key, n)
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
