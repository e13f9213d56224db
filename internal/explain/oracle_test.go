package explain

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cape/internal/dataset"
	"cape/internal/distance"
	"cape/internal/engine"
	"cape/internal/oracle"
	"cape/internal/pattern"
	"cape/internal/value"
)

var oracleFuncs = map[engine.AggFunc]oracle.Func{
	engine.Count: oracle.Count, engine.Sum: oracle.Sum, engine.Avg: oracle.Avg,
	engine.Min: oracle.Min, engine.Max: oracle.Max,
}

// oracleAgg resolves an aggregate's argument against sch.
func oracleAgg(sch engine.Schema, a engine.AggSpec) oracle.Agg {
	arg := -1
	if !a.IsStar() {
		arg = sch.Index(a.Arg)
	}
	return oracle.Agg{Func: oracleFuncs[a.Func], Arg: arg}
}

// oraclePatterns presents mined patterns to internal/oracle as plain
// values: F, V, the aggregate, and the local models' predictions.
func oraclePatterns(sch engine.Schema, mined []*pattern.Mined) []oracle.Pattern {
	out := make([]oracle.Pattern, len(mined))
	for i, m := range mined {
		out[i] = oracle.Pattern{
			Key: m.Pattern.Key(), F: m.Pattern.F, V: m.Pattern.V, Agg: oracleAgg(sch, m.Pattern.Agg),
			Local: func(frag value.Tuple) (func([]float64) float64, bool) {
				lm, ok := m.Local(frag)
				if !ok {
					return nil, false
				}
				return lm.Model.Predict, true
			},
		}
	}
	return out
}

// oracleExplain is internal/oracle's answer to q over tab's rows.
func oracleExplain(tab *engine.Table, q UserQuestion, mined []*pattern.Mined, opt Options) ([]oracle.Explanation, int) {
	sch := tab.Schema()
	oq := oracle.Question{GroupBy: q.GroupBy, Values: q.Values, Agg: oracleAgg(sch, q.Agg), Low: q.Dir == Low}
	return oracle.Explain(sch.Names(), tab.Rows(), oq, oraclePatterns(sch, mined), opt.Metric, opt.K, opt.Epsilon)
}

// oracleNorm is the oracle's NORM of pattern p for question q over tab.
func oracleNorm(tab *engine.Table, q UserQuestion, p pattern.Pattern) float64 {
	attrs := p.GroupAttrs()
	vals, _ := q.Project(attrs)
	idx, err := tab.Schema().Indices(attrs)
	if err != nil {
		panic(err)
	}
	return oracle.Norm(tab.Rows(), idx, vals, oracleAgg(tab.Schema(), p.Agg))
}

// requireOracle asserts a generator's explanations match the oracle's
// field for field, floats to the bit and values with their kinds.
func requireOracle(t *testing.T, label string, want []oracle.Explanation, got []Explanation) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d explanations, oracle %d", label, len(got), len(want))
	}
	same := func(a, b value.V) bool { return a.Kind() == b.Kind() && value.Equal(a, b) }
	bits := math.Float64bits
	for i, w := range want {
		g := got[i]
		ok := g.Relevant.Key() == w.Relevant.Key && g.Refined.Key() == w.Refined.Key &&
			slices.Equal(g.Attrs, w.Attrs) && len(g.Tuple) == len(w.Tuple) &&
			same(g.AggValue, w.AggValue) && bits(g.Predicted) == bits(w.Predicted) &&
			bits(g.Deviation) == bits(w.Deviation) && bits(g.Distance) == bits(w.Distance) &&
			bits(g.Norm) == bits(w.Norm) && bits(g.Score) == bits(w.Score)
		for j := range w.Tuple {
			ok = ok && same(g.Tuple[j], w.Tuple[j])
		}
		if !ok {
			t.Errorf("%s rank %d:\n   got %s\noracle %+v", label, i, g, w)
		}
	}
}

// TestExplainMatchesOracle is the end-to-end differential test of
// explanation generation: GenOpt and GenNaive, over a dense Table and
// over a SegTable of sealed segments plus a tail, must return exactly
// the oracle's literal top k of Definitions 5–7 and 10 — explanation by
// explanation, field by field — across randomized inputs and both
// directions. GenNaive is Algorithm 1, so it examines exactly the
// oracle's candidates; GenOpt's bound may only skip some.
func TestExplainMatchesOracle(t *testing.T) {
	metric := distance.NewMetric().SetFunc("year", distance.Numeric{Scale: 4})
	tables := []*engine.Table{
		dataset.GenerateDBLP(dataset.DBLPConfig{Rows: 2000, Seed: 3}),
	}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tables = append(tables, randomBatchTable(rng, 150+rng.Intn(250)))
	}
	found := 0
	for ti, tab := range tables {
		pats := mineLenient(t, tab, []string{"author", "venue", "year"})
		qs := sampleQuestions(t, tab, []string{"author", "venue", "year"}, 4)
		qs = append(qs, sampleQuestions(t, tab, []string{"author", "year"}, 2)...)
		opt := Options{K: 8, Metric: metric, Epsilon: 1e-9, Parallelism: 1}
		rels := []struct {
			name string
			rel  engine.Relation
		}{{"table", tab}, {"segtable", segTableOf(t, tab, 3, 37)}}
		for qi, q := range qs {
			want, candidates := oracleExplain(tab, q, pats, opt)
			found += len(want)
			for _, r := range rels {
				label := fmt.Sprintf("table %d question %d %s", ti, qi, r.name)
				got, stats, err := GenOpt(q, r.rel, pats, opt)
				if err != nil {
					t.Fatal(err)
				}
				requireOracle(t, label+" GenOpt", want, got)
				if stats.Candidates > candidates {
					t.Errorf("%s GenOpt: %d candidates, Algorithm 1 examines %d", label, stats.Candidates, candidates)
				}
				got, stats, err = GenNaive(q, r.rel, pats, opt)
				if err != nil {
					t.Fatal(err)
				}
				requireOracle(t, label+" GenNaive", want, got)
				if stats.Candidates != candidates {
					t.Errorf("%s GenNaive: %d candidates, oracle %d", label, stats.Candidates, candidates)
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("the oracle found no explanation for any question")
	}
}
