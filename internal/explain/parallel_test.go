package explain

import (
	"fmt"
	"sync"
	"testing"

	"cape/internal/dataset"
	"cape/internal/distance"
	"cape/internal/engine"
	"cape/internal/mining"
	"cape/internal/pattern"
	"cape/internal/value"
)

// mineLenient mines a generously thresholded pattern pool over attrs.
func mineLenient(t testing.TB, tab *engine.Table, attrs []string) []*pattern.Mined {
	t.Helper()
	res, err := mining.ARPMine(tab, mining.Options{
		MaxPatternSize: 3,
		Attributes:     attrs,
		Thresholds:     pattern.Thresholds{Theta: 0.1, LocalSupport: 3, Lambda: 0.1, GlobalSupport: 2},
		AggFuncs:       []engine.AggFunc{engine.Count},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("mining found no patterns")
	}
	return res.Patterns
}

// sampleQuestions builds questions from the first result rows of the
// aggregate query, alternating direction.
func sampleQuestions(t testing.TB, tab *engine.Table, groupBy []string, n int) []UserQuestion {
	t.Helper()
	grouped, err := tab.GroupBy(groupBy, []engine.AggSpec{{Func: engine.Count}})
	if err != nil {
		t.Fatal(err)
	}
	if grouped.NumRows() < n {
		n = grouped.NumRows()
	}
	out := make([]UserQuestion, 0, n)
	for i := 0; i < n; i++ {
		dir := Low
		if i%2 == 1 {
			dir = High
		}
		q, err := QuestionFromRow(groupBy, engine.AggSpec{Func: engine.Count}, grouped.Row(i), dir)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, q)
	}
	return out
}

// requireIdentical asserts two explanation lists match field for field.
func requireIdentical(t *testing.T, label string, want, got []Explanation) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d explanations", label, len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		switch {
		case w.Score != g.Score,
			!w.Tuple.Equal(g.Tuple),
			w.key() != g.key(),
			w.Relevant.Key() != g.Relevant.Key(),
			w.Refined.Key() != g.Refined.Key(),
			w.Deviation != g.Deviation,
			w.Predicted != g.Predicted,
			w.Distance != g.Distance,
			w.Norm != g.Norm,
			!value.Equal(w.AggValue, g.AggValue):
			t.Errorf("%s rank %d differs:\n  seq: %s\n  par: %s", label, i, w, g)
		}
	}
}

// TestGenOptParallelDeterminism: GenOpt with Parallelism 8 must return
// exactly the same ranked explanations (scores, keys, order — every
// field) as Parallelism 1, on both sample dataset families.
func TestGenOptParallelDeterminism(t *testing.T) {
	cases := []struct {
		name    string
		tab     *engine.Table
		attrs   []string
		groupBy []string
		metric  *distance.Metric
	}{
		{
			name:    "dblp",
			tab:     dataset.GenerateDBLP(dataset.DBLPConfig{Rows: 4000, Seed: 11}),
			attrs:   []string{"author", "venue", "year"},
			groupBy: []string{"author", "venue", "year"},
			metric:  distance.NewMetric().SetFunc("year", distance.Numeric{Scale: 4}),
		},
		{
			name:    "crime",
			tab:     dataset.GenerateCrime(dataset.CrimeConfig{Rows: 4000, Seed: 11, NumAttrs: 5}),
			attrs:   []string{"type", "community", "year", "month"},
			groupBy: []string{"type", "community", "year"},
			metric: distance.NewMetric().
				SetFunc("year", distance.Numeric{Scale: 3}).
				SetFunc("community", distance.Numeric{Scale: 2}),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pats := mineLenient(t, tc.tab, tc.attrs)
			for qi, q := range sampleQuestions(t, tc.tab, tc.groupBy, 4) {
				seq, seqStats, err := GenOpt(q, tc.tab, pats, Options{K: 10, Metric: tc.metric, Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				par, parStats, err := GenOpt(q, tc.tab, pats, Options{K: 10, Metric: tc.metric, Parallelism: 8})
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, fmt.Sprintf("question %d", qi), seq, par)
				// RefinementPairs is exact under concurrency; pruning
				// (and the candidate scans it skips) varies with the
				// bound's staleness.
				if seqStats.RefinementPairs != parStats.RefinementPairs {
					t.Errorf("question %d: refinement pairs %d vs %d",
						qi, seqStats.RefinementPairs, parStats.RefinementPairs)
				}
			}
		})
	}
}

// TestExplainerParallelMatchesSequential covers the Explainer path
// (shared cache + worker pool) against cold sequential generation.
func TestExplainerParallelMatchesSequential(t *testing.T) {
	tab := dataset.GenerateDBLP(dataset.DBLPConfig{Rows: 3000, Seed: 5})
	pats := mineLenient(t, tab, []string{"author", "venue", "year"})
	metric := distance.NewMetric().SetFunc("year", distance.Numeric{Scale: 4})
	ex := NewExplainer(tab, pats, Options{K: 10, Metric: metric, Parallelism: 8})
	for qi, q := range sampleQuestions(t, tab, []string{"author", "venue", "year"}, 3) {
		seq, _, err := GenOpt(q, tab, pats, Options{K: 10, Metric: metric})
		if err != nil {
			t.Fatal(err)
		}
		par, _, err := ex.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("question %d", qi), seq, par)
	}
}

// TestExplainerSingleflight: under 16 concurrent identical questions,
// each distinct group-by must be computed exactly once — the
// singleflight guarantee. The compute hook counts actual GroupBy
// executions (not lookups). Run with -race this also exercises the
// sharded cache locking.
func TestExplainerSingleflight(t *testing.T) {
	tab := runningExample(t)
	pats := minePatterns(t, tab)
	ex := NewExplainer(tab, pats, Options{K: 5, Metric: yearMetric(), Parallelism: 4})

	var mu sync.Mutex
	computes := make(map[string]int)
	ex.cache.onCompute = func(key string) {
		mu.Lock()
		computes[key]++
		mu.Unlock()
	}

	q := sigkddQuestion()
	want, _, err := GenOpt(q, tab, pats, Options{K: 5, Metric: yearMetric()})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 16
	start := make(chan struct{})
	results := make([][]Explanation, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], _, errs[i] = ex.Explain(q)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		requireIdentical(t, fmt.Sprintf("client %d", i), want, results[i])
	}
	mu.Lock()
	defer mu.Unlock()
	if len(computes) == 0 {
		t.Fatal("no group-bys computed")
	}
	for key, n := range computes {
		if n != 1 {
			t.Errorf("grouping %q computed %d times, want exactly 1", key, n)
		}
	}
	if got := ex.CachedGroupings(); got != len(computes) {
		t.Errorf("CachedGroupings() = %d, want %d", got, len(computes))
	}
}

// TestGroupCacheErrorNotCached: a failed computation must propagate to
// the caller but not poison the cache — the next caller retries.
func TestGroupCacheErrorNotCached(t *testing.T) {
	c := newGroupCache()
	computes := 0
	c.onCompute = func(string) { computes++ }
	tab := engine.NewTable(engine.Schema{{Name: "a", Kind: value.Int}})
	tab.MustAppend(value.Tuple{value.NewInt(1)})
	count := engine.AggSpec{Func: engine.Count}
	if _, err := c.get(tab, "k", []string{"missing"}, count); err == nil {
		t.Fatal("grouping by a missing column succeeded")
	}
	if n := c.len(); n != 0 {
		t.Fatalf("failed computation cached (%d entries)", n)
	}
	want, err := c.get(tab, "k", []string{"a"}, count)
	if err != nil || want.tab.NumRows() != 1 {
		t.Fatalf("retry after error failed: %v, %v", want, err)
	}
	// Now a hit: nothing is computed again.
	got, err := c.get(tab, "k", []string{"missing"}, count)
	if err != nil || got != want || computes != 2 {
		t.Fatalf("cached hit failed: %v, %v after %d computations", got, err, computes)
	}
}

// TestGroupCacheEpochStaleness: an entry published at an older epoch is
// caught up on the next lookup at a newer epoch; matching epochs hit.
func TestGroupCacheEpochStaleness(t *testing.T) {
	c := newGroupCache()
	computes := 0
	c.onCompute = func(string) { computes++ }
	tab := engine.NewTable(engine.Schema{{Name: "a", Kind: value.Int}})
	tab.MustAppend(value.Tuple{value.NewInt(1)})
	count := engine.AggSpec{Func: engine.Count}
	old, err := c.get(tab, "k", []string{"a"}, count)
	if err != nil || computes != 1 {
		t.Fatalf("initial compute: %v, %v", old, err)
	}
	// Same epoch: cached result, nothing computed.
	got, err := c.get(tab, "k", []string{"a"}, count)
	if err != nil || got != old || computes != 1 {
		t.Fatalf("same-epoch hit: %v, %v", got, err)
	}
	// Newer epoch: the stale entry is replaced.
	tab.MustAppend(value.Tuple{value.NewInt(2)})
	fresh, err := c.get(tab, "k", []string{"a"}, count)
	if err != nil || fresh == old || fresh.tab.NumRows() != 2 || old.tab.NumRows() != 1 || computes != 2 {
		t.Fatalf("stale entry not recomputed: %v, %v", fresh, err)
	}
	got, err = c.get(tab, "k", []string{"a"}, count)
	if err != nil || got != fresh || computes != 2 {
		t.Fatalf("post-refresh hit: %v, %v", got, err)
	}
	if n := c.len(); n != 1 {
		t.Fatalf("cache holds %d entries, want 1", n)
	}
}
