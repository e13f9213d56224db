package explain

import (
	"fmt"
	"testing"

	"cape/internal/dataset"
	"cape/internal/distance"
	"cape/internal/engine"
	"cape/internal/mining"
	"cape/internal/pattern"
)

// segTableOf splits a table's rows into sealed segments plus an
// uncompressed tail, exercising the full segment-backed layout.
func segTableOf(t *testing.T, tab *engine.Table, nSegs, tailRows int) *engine.SegTable {
	t.Helper()
	n := tab.NumRows() - tailRows
	st := engine.NewSegTable(tab.Schema())
	per := n / nSegs
	for s := 0; s < nSegs; s++ {
		lo, hi := s*per, (s+1)*per
		if s == nSegs-1 {
			hi = n
		}
		w := engine.NewSegmentWriter(tab.Schema())
		for i := lo; i < hi; i++ {
			if err := w.Append(tab.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.AddSegment(w.Segment()); err != nil {
			t.Fatal(err)
		}
	}
	for i := n; i < tab.NumRows(); i++ {
		if err := st.AppendRows(tab.Rows()[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if st.NumRows() != tab.NumRows() {
		t.Fatalf("segtable has %d rows, want %d", st.NumRows(), tab.NumRows())
	}
	return st
}

// requireStatsEqual asserts every Stats counter matches. Only valid for
// sequential (parallelism-1) runs, where all four counters are
// deterministic.
func requireStatsEqual(t *testing.T, label string, want, got *Stats) {
	t.Helper()
	if *want != *got {
		t.Errorf("%s: stats %+v vs %+v", label, *want, *got)
	}
}

// TestExplainSegTableEquivalence is the end-to-end differential test of
// the segment-backed path: mining and explanation generation over a
// SegTable (compressed segments + uncompressed tail) must produce
// identical patterns, identical explanations, and identical sequential
// Stats to the same pipeline over the dense Table.
func TestExplainSegTableEquivalence(t *testing.T) {
	metric := distance.NewMetric().SetFunc("year", distance.Numeric{Scale: 4})
	tab := dataset.GenerateDBLP(dataset.DBLPConfig{Rows: 2500, Seed: 5})
	st := segTableOf(t, tab, 3, 137)

	attrs := []string{"author", "venue", "year"}
	pats := mineLenient(t, tab, attrs)
	segRes, err := mining.ARPMine(st, mining.Options{
		MaxPatternSize: 3,
		Attributes:     attrs,
		Thresholds:     pattern.Thresholds{Theta: 0.1, LocalSupport: 3, Lambda: 0.1, GlobalSupport: 2},
		AggFuncs:       []engine.AggFunc{engine.Count},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(segRes.Patterns) != len(pats) {
		t.Fatalf("segment mining found %d patterns, dense %d", len(segRes.Patterns), len(pats))
	}
	for i := range pats {
		if segRes.Patterns[i].Pattern.Key() != pats[i].Pattern.Key() {
			t.Fatalf("pattern %d: segment %q, dense %q",
				i, segRes.Patterns[i].Pattern.Key(), pats[i].Pattern.Key())
		}
	}

	qs := sampleQuestions(t, tab, attrs, 4)
	qs = append(qs, sampleQuestions(t, tab, []string{"author", "year"}, 2)...)
	opt := Options{K: 8, Metric: metric, Parallelism: 1}
	for qi, q := range qs {
		label := fmt.Sprintf("question %d", qi)
		want, wantStats, err := GenOpt(q, tab, pats, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, gotStats, err := GenOpt(q, st, segRes.Patterns, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, label+" GenOpt", want, got)
		requireStatsEqual(t, label+" GenOpt", wantStats, gotStats)

		wantN, wantNStats, err := GenNaive(q, tab, pats, opt)
		if err != nil {
			t.Fatal(err)
		}
		gotN, gotNStats, err := GenNaive(q, st, segRes.Patterns, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, label+" GenNaive", wantN, gotN)
		requireStatsEqual(t, label+" GenNaive", wantNStats, gotNStats)
	}
}
