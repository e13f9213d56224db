package explain

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cape/internal/engine"
	"cape/internal/oracle"
	"cape/internal/pattern"
	"cape/internal/value"
)

// generalizationExample builds data where AX's entire 2007 output is
// depressed (not just one venue): every venue has 2 instead of 4 papers
// in 2007, so the question about SIGKDD 2007 generalizes to "AX's 2007
// total is low".
func generalizationExample(t testing.TB) *engine.Table {
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
	for year := int64(2005); year <= 2009; year++ {
		for _, v := range []string{"SIGKDD", "VLDB", "ICDE"} {
			n := 4
			if year == 2007 {
				n = 2 // author-wide dip
			}
			add("AX", v, year, n)
			add("AY", v, year, 3)
			add("AZ", v, year, 3)
		}
	}
	return tab
}

func TestGeneralizeFindsAuthorWideDip(t *testing.T) {
	tab := generalizationExample(t)
	pats := minePatterns(t, tab)
	q := UserQuestion{
		GroupBy: []string{"author", "venue", "year"},
		Agg:     engine.AggSpec{Func: engine.Count},
		Values: value.Tuple{
			value.NewString("AX"), value.NewString("SIGKDD"), value.NewInt(2007),
		},
		AggValue: value.NewInt(2),
		Dir:      Low,
	}
	gens, err := Generalize(q, tab, pats, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) == 0 {
		t.Fatal("no generalizations found for an author-wide dip")
	}
	// The strongest generalization should be the author-year dip: AX's
	// 2007 total (6) well below the ~12 trend.
	top := gens[0]
	if top.Deviation >= 0 {
		t.Errorf("low question must generalize to negative deviation: %+v", top)
	}
	s := top.String()
	if !strings.Contains(s, "AX") || !strings.Contains(s, "2007") || !strings.Contains(s, "below") {
		t.Errorf("top generalization = %s", s)
	}
	// Every generalization is strictly coarser than the question.
	for _, g := range gens {
		if len(g.Attrs) >= len(q.GroupBy) {
			t.Errorf("generalization not coarser: %v", g.Attrs)
		}
		if g.Deviation >= 0 {
			t.Errorf("wrong-direction generalization: %s", g)
		}
	}
}

func TestGeneralizeNoDipNoFindings(t *testing.T) {
	// In the counterbalanced running example AX's yearly totals are
	// exactly constant, so no author-level generalization should fire
	// for the low question.
	tab := runningExample(t)
	pats := minePatterns(t, tab)
	gens, err := Generalize(sigkddQuestion(), tab, pats, Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gens {
		isAuthorYear := len(g.Attrs) == 2 &&
			((g.Attrs[0] == "author" && g.Attrs[1] == "year") ||
				(g.Attrs[0] == "year" && g.Attrs[1] == "author"))
		if isAuthorYear {
			t.Errorf("author-year generalization on perfectly-counterbalanced data: %s", g)
		}
	}
}

func TestGeneralizeHighDirection(t *testing.T) {
	tab := generalizationExample(t)
	pats := minePatterns(t, tab)
	// 2005's values sit slightly above the (dip-lowered) constant model,
	// so a high question should generalize with positive deviations only.
	q := UserQuestion{
		GroupBy: []string{"author", "venue", "year"},
		Agg:     engine.AggSpec{Func: engine.Count},
		Values: value.Tuple{
			value.NewString("AX"), value.NewString("SIGKDD"), value.NewInt(2005),
		},
		AggValue: value.NewInt(4),
		Dir:      High,
	}
	gens, err := Generalize(q, tab, pats, Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gens {
		if g.Deviation <= 0 {
			t.Errorf("high question requires positive deviations: %s", g)
		}
	}
}

func TestGeneralizeInvalidQuestion(t *testing.T) {
	tab := generalizationExample(t)
	if _, err := Generalize(UserQuestion{}, tab, nil, Options{}); err == nil {
		t.Error("invalid question should error")
	}
}

func TestGeneralizeKLimit(t *testing.T) {
	tab := generalizationExample(t)
	pats := minePatterns(t, tab)
	q := UserQuestion{
		GroupBy: []string{"author", "venue", "year"},
		Agg:     engine.AggSpec{Func: engine.Count},
		Values: value.Tuple{
			value.NewString("AX"), value.NewString("SIGKDD"), value.NewInt(2007),
		},
		AggValue: value.NewInt(2),
		Dir:      Low,
	}
	gens, err := Generalize(q, tab, pats, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) > 1 {
		t.Errorf("K=1 returned %d generalizations", len(gens))
	}
}

// literalGeneralize is Generalize with each coarser aggregate computed
// as internal/oracle's GroupBy over SelectEq — σ_{F∪V = t[F∪V]}(R), then
// one aggregate over the selection — on rows whose schema is sch.
func literalGeneralize(sch engine.Schema, rows []value.Tuple, q UserQuestion, pats []*pattern.Mined, eps float64) []Generalization {
	var out []Generalization
	for _, m := range pats {
		p := m.Pattern
		attrs := p.GroupAttrs()
		tuple, ok := q.Project(attrs)
		if p.Agg != q.Agg || len(attrs) >= len(q.GroupBy) || !ok {
			continue
		}
		frag, _ := q.Project(p.F)
		lm, ok := m.Local(frag)
		if !ok {
			continue
		}
		idx := make([]int, len(attrs))
		for i, a := range attrs {
			idx[i] = sch.Index(a)
		}
		agged := oracle.GroupBy(oracle.SelectEq(rows, idx, tuple), nil, []oracle.Agg{oracleAgg(sch, p.Agg)})
		if len(agged) == 0 {
			continue
		}
		actual, numeric := agged[0][0].AsFloat()
		if !numeric {
			continue
		}
		vVals, _ := q.Project(p.V)
		x, _ := pattern.EncodePredictors(vVals)
		pred := lm.Model.Predict(x)
		dev := actual - pred
		if (q.Dir == Low && dev >= 0) || (q.Dir == High && dev <= 0) {
			continue
		}
		out = append(out, Generalization{Pattern: p, Attrs: attrs, Tuple: tuple, AggValue: agged[0][0],
			Predicted: pred, Deviation: dev, Score: math.Abs(dev) / (math.Abs(pred) + eps)})
	}
	slices.SortStableFunc(out, func(a, b Generalization) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Pattern.Key(), b.Pattern.Key())
	})
	return out
}

// TestGeneralizeReadsRetainedGroupings is the differential test of
// Explainer.Generalize, which reads each coarser aggregate from the
// explainer's retained grouping γ_{F∪V, agg}(R). The seeded append
// sequence of TestRetainedGroupingsAcrossEpochs — new groups, a Float
// landing in the Int-only measure x, ±0 and NaN keys, a Compact — runs
// over a Table and a SegTable, each served by one long-lived Explainer.
// At every epoch each answer equals internal/oracle's SelectEq+GroupBy
// field by field, floats to the bit and values with their kinds.
func TestGeneralizeReadsRetainedGroupings(t *testing.T) {
	found, floatSums, zeroKeys := 0, 0, 0
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := engine.NewTable(epochSchema)
		if err := tab.AppendRows(epochRows(rng, 150+rng.Intn(100), 4, false)); err != nil {
			t.Fatal(err)
		}
		rels := []engine.MutableRelation{tab, segTableOf(t, tab, 2, 30)}
		batches := [][]value.Tuple{
			epochRows(rng, 20, 6, false),
			epochRows(rng, 25, 6, true), // a Float x: sum(x) turns Float
			nil,                         // Compact first, then nothing
			epochRows(rng, 15, 7, false),
		}
		opt := Options{K: 1000, Epsilon: 1e-9}
		count := engine.AggSpec{Func: engine.Count}
		sumX := engine.AggSpec{Func: engine.Sum, Arg: "x"}
		exs := make([]*Explainer, len(rels))
		for epoch := 0; epoch <= len(batches); epoch++ {
			if epoch > 0 {
				for _, rel := range rels {
					if st, ok := rel.(*engine.SegTable); ok && epoch == 3 {
						if err := st.Compact(); err != nil {
							t.Fatal(err)
						}
					}
					if err := rel.AppendRows(batches[epoch-1]); err != nil {
						t.Fatal(err)
					}
				}
			}
			pats := mineEpoch(t, tab)
			qs := questionsFor(t, tab, [][]string{{"a", "b", "f"}}, []engine.AggSpec{count, sumX}, 6)
			for ri, rel := range rels {
				if exs[ri] == nil {
					exs[ri] = NewExplainer(rel, pats, opt)
				}
				exs[ri].SetPatterns(pats)
				rows := scanRows(t, rel)
				for qi, q := range qs {
					for _, dir := range []Direction{Low, High} {
						q.Dir = dir
						label := fmt.Sprintf("seed %d epoch %d %T q%d %s", seed, epoch, rel, qi, dir)
						got, err := exs[ri].Generalize(q, Options{})
						if err != nil {
							t.Fatal(err)
						}
						want := literalGeneralize(rel.Schema(), rows, q, pats, opt.Epsilon)
						requireSameGeneralizations(t, label, want, got)
						for _, g := range got {
							found++
							if g.AggValue.Kind() == value.Float {
								floatSums++
							}
							if v, ok := q.ValueOf("f"); ok && slices.Contains(g.Attrs, "f") && v.Kind() == value.Float && v.Float() == 0 {
								zeroKeys++
							}
						}
					}
				}
			}
		}
	}
	if found == 0 || floatSums == 0 || zeroKeys == 0 {
		t.Fatalf("%d generalizations, %d with a Float sum, %d keyed on a ±0: the sequence exercises nothing", found, floatSums, zeroKeys)
	}
}

// requireSameGeneralizations asserts two generalization lists agree
// field by field, floats to the bit and values with their kinds.
func requireSameGeneralizations(t *testing.T, label string, want, got []Generalization) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d generalizations, want %d", label, len(got), len(want))
	}
	same := func(a, b value.V) bool {
		return a.Kind() == b.Kind() && value.Equal(a, b) &&
			(a.Kind() != value.Float || math.Float64bits(a.Float()) == math.Float64bits(b.Float()))
	}
	bits := math.Float64bits
	for i, w := range want {
		g := got[i]
		ok := g.Pattern.Key() == w.Pattern.Key() && slices.Equal(g.Attrs, w.Attrs) &&
			len(g.Tuple) == len(w.Tuple) && same(g.AggValue, w.AggValue) &&
			bits(g.Predicted) == bits(w.Predicted) && bits(g.Deviation) == bits(w.Deviation) &&
			bits(g.Score) == bits(w.Score)
		for j := range w.Tuple {
			ok = ok && same(g.Tuple[j], w.Tuple[j])
		}
		if !ok {
			t.Errorf("%s rank %d:\n  got %s\n want %s", label, i, g, w)
		}
	}
}
