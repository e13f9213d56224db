package explain

import (
	"fmt"
	"math/rand"
	"testing"

	"cape/internal/engine"
	"cape/internal/mining"
	"cape/internal/pattern"
	"cape/internal/value"
)

// maintainerOver builds a Maintainer mining count and sum patterns over
// rel at the given width, so its grouping sets carry sum columns no
// count pattern reads.
func maintainerOver(t *testing.T, rel engine.MutableRelation, width int) *mining.Maintainer {
	t.Helper()
	m, err := mining.NewMaintainer(rel, mining.Options{
		MaxPatternSize: 3,
		Attributes:     []string{"a", "b", "f"},
		Thresholds:     pattern.Thresholds{Theta: 0.1, LocalSupport: 3, Lambda: 0.1, GlobalSupport: 2},
		AggFuncs:       []engine.AggFunc{engine.Count, engine.Sum},
		Parallelism:    width,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMaintainedExplainerDifferential: an Explainer reading pattern
// groupings from a Maintainer answers exactly as one computing its own.
// A seeded append stream — batches that create groups, a Float landing
// in the Int-only measure x, ±0 and NaN keys, a Compact, an empty
// append — runs over a Table and a SegTable, each with a Maintainer at
// mining width 1 and 4 caught up after every batch. At every epoch,
// Explain and ExplainBatch give the same explanations and Stats on both
// Explainers. Over the Table, the maintained Explainer caches nothing:
// the Maintainer answers every pattern grouping.
func TestMaintainedExplainerDifferential(t *testing.T) {
	count := engine.AggSpec{Func: engine.Count}
	sumX := engine.AggSpec{Func: engine.Sum, Arg: "x"}
	opt := Options{K: 6, Epsilon: 1e-9, Parallelism: 1}
	found := 0
	for seed := int64(0); seed < 3; seed++ {
		for _, width := range []int{1, 4} {
			rng := rand.New(rand.NewSource(seed))
			tab := engine.NewTable(epochSchema)
			if err := tab.AppendRows(epochRows(rng, 150+rng.Intn(100), 4, false)); err != nil {
				t.Fatal(err)
			}
			rels := []engine.MutableRelation{tab, segTableOf(t, tab, 2, 30)}
			batches := [][]value.Tuple{
				epochRows(rng, 20, 6, false), // authors E and F are new groups
				epochRows(rng, 25, 6, true),  // a Float x: sum(x) turns Float
				nil,                          // Compact first, then nothing
				epochRows(rng, 15, 7, false),
			}
			ms := make([]*mining.Maintainer, len(rels))
			owns := make([]*Explainer, len(rels))
			srcs := make([]*Explainer, len(rels))
			for ri, rel := range rels {
				ms[ri] = maintainerOver(t, rel, width)
				pats := ms[ri].Patterns()
				owns[ri] = NewExplainer(rel, pats, opt)
				srcs[ri] = NewExplainer(rel, pats, opt)
				srcs[ri].SetGroupingSource(ms[ri])
			}
			for epoch := 0; epoch <= len(batches); epoch++ {
				for ri, rel := range rels {
					if epoch == 0 {
						break
					}
					if st, ok := rel.(*engine.SegTable); ok && epoch == 3 {
						if err := st.Compact(); err != nil {
							t.Fatal(err)
						}
					}
					if err := rel.AppendRows(batches[epoch-1]); err != nil {
						t.Fatal(err)
					}
					if err := ms[ri].CatchUp(); err != nil {
						t.Fatal(err)
					}
					pats := ms[ri].Patterns()
					owns[ri].SetPatterns(pats)
					srcs[ri].SetPatterns(pats)
				}
				qs := questionsFor(t, tab, [][]string{{"a", "b", "f"}, {"a", "b"}}, []engine.AggSpec{count, sumX}, 3)
				for ri, rel := range rels {
					label := fmt.Sprintf("seed %d width %d epoch %d %T", seed, width, epoch, rel)
					for qi, q := range qs {
						want, wantStats, err := owns[ri].Explain(q)
						if err != nil {
							t.Fatal(err)
						}
						got, stats, err := srcs[ri].Explain(q)
						if err != nil {
							t.Fatal(err)
						}
						requireSameExplanations(t, fmt.Sprintf("%s q%d", label, qi), want, got)
						requireStatsEqual(t, fmt.Sprintf("%s q%d", label, qi), wantStats, stats)
						found += len(got)
					}
					wantBatch, gotBatch := owns[ri].ExplainBatch(qs), srcs[ri].ExplainBatch(qs)
					for qi := range qs {
						w, g := wantBatch[qi], gotBatch[qi]
						if w.Err != nil || g.Err != nil {
							t.Fatalf("%s batch q%d: errors %v / %v", label, qi, w.Err, g.Err)
						}
						requireSameExplanations(t, fmt.Sprintf("%s batch q%d", label, qi), w.Explanations, g.Explanations)
						requireStatsEqual(t, fmt.Sprintf("%s batch q%d", label, qi), w.Stats, g.Stats)
					}
					if n := srcs[ri].CachedGroupings(); rel == engine.MutableRelation(tab) && n != 0 {
						t.Errorf("%s: the maintained Explainer caches %d groupings, want 0", label, n)
					}
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no explanation found: the stream exercises nothing")
	}
}

// TestMaintainedExplainerComputesNoPatternGrouping: with a Maintainer in
// step with the relation, an Explainer resolving and answering
// questions computes only question groupings — once each, then one
// catch-up per append — and never a pattern grouping, before or after
// appends that create groups.
func TestMaintainedExplainerComputesNoPatternGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := engine.NewTable(epochSchema)
	if err := tab.AppendRows(epochRows(rng, 200, 4, false)); err != nil {
		t.Fatal(err)
	}
	m := maintainerOver(t, tab, 1)
	ex := NewExplainer(tab, m.Patterns(), Options{K: 6, Parallelism: 1})
	ex.SetGroupingSource(m)
	computed := map[string]int{}
	ex.cache.onCompute = func(key string) { computed[key]++ }

	count := engine.AggSpec{Func: engine.Count}
	shapes := [][]string{{"a", "b", "f"}, {"a", "b"}, {"f", "a"}}
	for epoch := 0; epoch < 3; epoch++ {
		if epoch > 0 {
			if err := tab.AppendRows(epochRows(rng, 20, 5+epoch, false)); err != nil {
				t.Fatal(err)
			}
			if err := m.CatchUp(); err != nil {
				t.Fatal(err)
			}
			ex.SetPatterns(m.Patterns())
		}
		relevant := 0
		for _, q := range questionsFor(t, tab, shapes, []engine.AggSpec{count}, 4) {
			rq, err := ex.Question(q.GroupBy, q.Agg, q.Values, q.Dir)
			if err != nil {
				t.Fatal(err)
			}
			_, stats, err := ex.Explain(rq)
			if err != nil {
				t.Fatal(err)
			}
			relevant += stats.RelevantPatterns
		}
		if relevant == 0 {
			t.Fatalf("epoch %d: no question had a relevant pattern", epoch)
		}
	}
	for _, g := range shapes {
		key := groupingKey(g, count)
		if computed[key] != 3 {
			t.Errorf("question grouping %q computed %d times over 3 epochs, want 3", key, computed[key])
		}
		delete(computed, key)
	}
	if len(computed) != 0 {
		t.Errorf("pattern groupings computed: %v", computed)
	}
	if n := ex.CachedGroupings(); n != len(shapes) {
		t.Errorf("%d cached groupings, want the %d question groupings", n, len(shapes))
	}
}
