package explain

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"cape/internal/distance"
	"cape/internal/engine"
	"cape/internal/mining"
	"cape/internal/oracle"
	"cape/internal/pattern"
	"cape/internal/value"
)

// epochSchema is the relation of the across-epochs differential: a
// string and an int key, a float key that draws +0, −0 and NaN, and an
// untyped measure x that holds only Ints until a batch lands a Float in
// it, which turns every sum(x) that folds it from an Int into a Float.
var epochSchema = engine.Schema{
	{Name: "a", Kind: value.String},
	{Name: "b", Kind: value.Int},
	{Name: "f", Kind: value.Float},
	{Name: "x", Kind: value.Null},
}

// epochRows draws n rows over authors 'A' up to 'A'+nA−1.
func epochRows(rng *rand.Rand, n, nA int, floatX bool) []value.Tuple {
	fs := []float64{0.5, 1.5, 0, math.Copysign(0, -1), math.NaN()}
	rows := make([]value.Tuple, n)
	for i := range rows {
		x := value.NewInt(rng.Int63n(100) - 50)
		if floatX && i == 0 {
			x = value.NewFloat(0.25 + float64(rng.Intn(4)))
		}
		rows[i] = value.Tuple{
			value.NewString(string(rune('A' + rng.Intn(nA)))),
			value.NewInt(int64(rng.Intn(3))),
			value.NewFloat(fs[rng.Intn(len(fs))]),
			x,
		}
	}
	return rows
}

// questionsFor samples n questions per shape and aggregate over rel's
// current rows, alternating directions.
func questionsFor(t *testing.T, rel engine.Relation, shapes [][]string, aggs []engine.AggSpec, n int) []UserQuestion {
	t.Helper()
	var qs []UserQuestion
	for _, g := range shapes {
		for _, agg := range aggs {
			grouped, err := rel.GroupBy(g, []engine.AggSpec{agg})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n && i < grouped.NumRows(); i++ {
				q, err := QuestionFromRow(g, agg, grouped.Row(i*grouped.NumRows()/n), Direction(i%2))
				if err != nil {
					t.Fatal(err)
				}
				qs = append(qs, q)
			}
		}
	}
	return qs
}

// scanRows copies every row of rel, as its operators read them.
func scanRows(t *testing.T, rel engine.MutableRelation) []value.Tuple {
	t.Helper()
	var rows []value.Tuple
	if err := rel.ScanRows(0, rel.NumRows(), func(row value.Tuple) error {
		rows = append(rows, slices.Clone(row))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// requireSameExplanations asserts two explanation lists agree field by
// field, floats to the bit and values with their kinds.
func requireSameExplanations(t *testing.T, label string, want, got []Explanation) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d explanations, want %d", label, len(got), len(want))
	}
	same := func(a, b value.V) bool { return a.Kind() == b.Kind() && value.Equal(a, b) }
	bits := math.Float64bits
	for i, w := range want {
		g := got[i]
		ok := g.Relevant.Key() == w.Relevant.Key() && g.Refined.Key() == w.Refined.Key() &&
			slices.Equal(g.Attrs, w.Attrs) && len(g.Tuple) == len(w.Tuple) && same(g.AggValue, w.AggValue) &&
			bits(g.Predicted) == bits(w.Predicted) && bits(g.Deviation) == bits(w.Deviation) &&
			bits(g.Distance) == bits(w.Distance) && bits(g.Norm) == bits(w.Norm) && bits(g.Score) == bits(w.Score)
		for j := range w.Tuple {
			ok = ok && same(g.Tuple[j], w.Tuple[j])
		}
		if !ok {
			t.Errorf("%s rank %d:\n  got %s\n want %s", label, i, g, w)
		}
	}
}

// requireSameTable asserts two tables agree byte for byte in everything
// a reader can see: schema names, each row's kind and payload bits, the
// dictionary codes and the dictionary.
func requireSameTable(t *testing.T, label string, got, want *engine.Table) {
	t.Helper()
	if !slices.Equal(got.Schema().Names(), want.Schema().Names()) || got.NumRows() != want.NumRows() {
		t.Fatalf("%s: %v × %d rows, want %v × %d", label, got.Schema().Names(), got.NumRows(), want.Schema().Names(), want.NumRows())
	}
	bitsEq := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	valEq := func(a, b value.V) bool {
		return a.Kind() == b.Kind() && value.Equal(a, b) &&
			(a.Kind() != value.Float || math.Float64bits(a.Float()) == math.Float64bits(b.Float()))
	}
	for ci := range want.Schema() {
		g, w := got.Col(ci), want.Col(ci)
		if !slices.Equal(g.Kinds, w.Kinds) || !slices.Equal(g.Num, w.Num) || !bitsEq(g.F64, w.F64) ||
			!slices.Equal(g.I64, w.I64) || !slices.Equal(g.Codes, w.Codes) ||
			!slices.EqualFunc(g.Dict, w.Dict, valEq) || g.NullCount() != w.NullCount() {
			t.Fatalf("%s: column %q differs\ngot:\n%swant:\n%s", label, want.Schema()[ci].Name, got, want)
		}
	}
}

// cachedTables returns every grouping ex's cache holds, by key.
func cachedTables(ex *Explainer) map[string]*engine.Table {
	entries := make(map[string]*cacheEntry)
	for i := range ex.cache.shards {
		sh := &ex.cache.shards[i]
		sh.mu.Lock()
		maps.Copy(entries, sh.entries)
		sh.mu.Unlock()
	}
	out := make(map[string]*engine.Table, len(entries))
	for key, e := range entries {
		<-e.ready
		out[key] = e.tab
	}
	return out
}

// requireGroupingsCold asserts every grouping ex has cached, brought to
// rel's current epoch (groupings the last questions did not reach are
// caught up here), equals a cold GroupBy over rel byte for byte.
func requireGroupingsCold(t *testing.T, label string, ex *Explainer, rel engine.MutableRelation) {
	t.Helper()
	tabs := cachedTables(ex)
	if len(tabs) == 0 {
		t.Fatalf("%s: nothing cached", label)
	}
	for key := range tabs {
		attrs, aggText, _ := strings.Cut(key, "\x1e")
		cols := strings.Split(attrs, "\x1f")
		agg, err := engine.ParseAggSpec(aggText)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ex.cache.get(rel, key, cols, agg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rel.GroupBy(cols, []engine.AggSpec{agg})
		if err != nil {
			t.Fatal(err)
		}
		requireSameTable(t, fmt.Sprintf("%s grouping %q", label, key), got.tab, want)
	}
}

// mineEpoch mines count and sum patterns over rel's current rows.
func mineEpoch(t *testing.T, rel engine.Relation) []*pattern.Mined {
	t.Helper()
	res, err := mining.ARPMine(rel, mining.Options{
		MaxPatternSize: 3,
		Attributes:     []string{"a", "b", "f"},
		Thresholds:     pattern.Thresholds{Theta: 0.1, LocalSupport: 3, Lambda: 0.1, GlobalSupport: 2},
		AggFuncs:       []engine.AggFunc{engine.Count, engine.Sum},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Patterns
}

// TestRetainedGroupingsAcrossEpochs is the differential test of the
// cache's fold path. A seeded sequence of appends — new groups, a Float
// landing in the Int-only measure x, ±0 and NaN keys, a Compact, an
// empty append — runs over a Table and a SegTable, each served by one
// long-lived Explainer. At every epoch, every grouping that Explainer
// has cached equals a cold GroupBy byte for byte, and every answer
// equals a fresh Explainer's and internal/oracle's over the relation's
// rows, field by field.
func TestRetainedGroupingsAcrossEpochs(t *testing.T) {
	found, floatSums := 0, 0
	for seed := int64(0); seed < 3; seed++ {
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
		metric := distance.NewMetric().SetFunc("b", distance.Numeric{Scale: 2})
		opt := Options{K: 6, Metric: metric, Epsilon: 1e-9, Parallelism: 1}
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
			qs := questionsFor(t, tab, [][]string{{"a", "b", "f"}, {"a", "b"}}, []engine.AggSpec{count, sumX}, 3)
			for ri, rel := range rels {
				if exs[ri] == nil {
					exs[ri] = NewExplainer(rel, pats, opt)
				}
				exs[ri].SetPatterns(pats)
				rows := scanRows(t, rel)
				sch := rel.Schema()
				for qi, q := range qs {
					label := fmt.Sprintf("seed %d epoch %d %T q%d", seed, epoch, rel, qi)
					got, stats, err := exs[ri].Explain(q)
					if err != nil {
						t.Fatal(err)
					}
					want, wantStats, err := NewExplainer(rel, pats, opt).Explain(q)
					if err != nil {
						t.Fatal(err)
					}
					requireSameExplanations(t, label+" vs fresh Explainer", want, got)
					if *stats != *wantStats {
						t.Errorf("%s: stats %+v, fresh Explainer %+v", label, *stats, *wantStats)
					}
					oq := oracle.Question{GroupBy: q.GroupBy, Values: q.Values, Agg: oracleAgg(sch, q.Agg), Low: q.Dir == Low}
					ow, _ := oracle.Explain(sch.Names(), rows, oq, oraclePatterns(sch, pats), opt.Metric, opt.K, opt.Epsilon)
					requireOracle(t, label+" vs oracle", ow, got)
					found += len(got)
					if q.Agg == sumX && q.AggValue.Kind() == value.Float {
						floatSums++
					}
				}
				requireGroupingsCold(t, fmt.Sprintf("seed %d epoch %d %T", seed, epoch, rel), exs[ri], rel)
			}
		}
	}
	if found == 0 || floatSums == 0 {
		t.Fatalf("%d explanations, %d questions about a Float sum(x): the sequence exercises nothing", found, floatSums)
	}
}

// TestExplainerRebuildsAfterSort: SortBy reorders the base table in
// place. A cached grouping cannot fold that — its group order and float
// sums would keep the old row order — so the next explain must regroup,
// before and after a further append, and answer exactly as a fresh
// Explainer does, with every cached grouping equal to a cold GroupBy.
func TestExplainerRebuildsAfterSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := engine.NewTable(engine.Schema{
		{Name: "a", Kind: value.String},
		{Name: "b", Kind: value.Int},
		{Name: "f", Kind: value.Float},
		{Name: "x", Kind: value.Float},
	})
	for i := 0; i < 300; i++ {
		tab.MustAppend(value.Tuple{
			value.NewString(string(rune('A' + rng.Intn(4)))),
			value.NewInt(int64(rng.Intn(3))),
			value.NewFloat(float64(rng.Intn(3))),
			// Magnitudes 1 to 1e12: the sums depend on fold order.
			value.NewFloat(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)))),
		})
	}
	opt := Options{K: 6, Metric: distance.NewMetric(), Parallelism: 1}
	sumX := engine.AggSpec{Func: engine.Sum, Arg: "x"}
	shapes := [][]string{{"a", "b", "f"}, {"a", "b"}}
	pats := mineEpoch(t, tab)
	ex := NewExplainer(tab, pats, opt)
	check := func(phase string) {
		t.Helper()
		for qi, q := range questionsFor(t, tab, shapes, []engine.AggSpec{sumX}, 4) {
			got, _, err := ex.Explain(q)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := NewExplainer(tab, pats, opt).Explain(q)
			if err != nil {
				t.Fatal(err)
			}
			requireSameExplanations(t, fmt.Sprintf("%s q%d", phase, qi), want, got)
		}
		requireGroupingsCold(t, phase, ex, tab)
	}
	check("before")
	if err := tab.SortBy([]string{"x"}); err != nil {
		t.Fatal(err)
	}
	pats = mineEpoch(t, tab)
	ex.SetPatterns(pats)
	check("sorted")
	if err := tab.SortBy([]string{"b", "a"}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AppendRows(tab.Rows()[:40]); err != nil {
		t.Fatal(err)
	}
	pats = mineEpoch(t, tab)
	ex.SetPatterns(pats)
	check("sorted and appended")
}

// tableImage is a deep copy of everything a reader of a table can see.
type tableImage struct {
	kinds [][]value.Kind
	f64   [][]uint64
	i64   [][]int64
	codes [][]int32
	dict  [][]value.V
	rows  int
}

func imageOf(tab *engine.Table) tableImage {
	img := tableImage{rows: tab.NumRows()}
	for ci := range tab.Schema() {
		c := tab.Col(ci)
		bits := make([]uint64, len(c.F64))
		for i, f := range c.F64 {
			bits[i] = math.Float64bits(f)
		}
		img.kinds = append(img.kinds, slices.Clone(c.Kinds))
		img.f64 = append(img.f64, bits)
		img.i64 = append(img.i64, slices.Clone(c.I64))
		img.codes = append(img.codes, slices.Clone(c.Codes))
		img.dict = append(img.dict, slices.Clone(c.Dict))
	}
	return img
}

// TestGroupingSnapshotsImmutable: a grouped table handed out at epoch e
// must not change while concurrent explains fold its grouping to e+1 —
// the append creates groups and moves counts in every grouping. A reader
// keeps reading the held tables during the folds, so under -race any
// write to memory they share is reported.
func TestGroupingSnapshotsImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tab := randomBatchTable(rng, 300)
	pats := mineLenient(t, tab, []string{"author", "venue", "year"})
	ex := NewExplainer(tab, pats, Options{K: 1 << 30, Metric: yearMetric(), Parallelism: 2})
	qs := sampleQuestions(t, tab, []string{"author", "venue", "year"}, 12)
	for _, q := range qs {
		if _, _, err := ex.Explain(q); err != nil {
			t.Fatal(err)
		}
	}
	held := cachedTables(ex)
	images := make(map[string]tableImage, len(held))
	for key, tab := range held {
		images[key] = imageOf(tab)
	}

	more := randomBatchTable(rand.New(rand.NewSource(10)), 80).Rows()
	for i := range more {
		if i%4 == 0 {
			more[i][0] = value.NewString("Z" + more[i][0].Str()) // a new author: new groups
		}
	}
	if err := tab.AppendRows(more); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			for _, h := range held {
				for r := 0; r < h.NumRows(); r++ {
					for ci := range h.Schema() {
						if _, ok := h.Col(ci).CodeOf(h.Col(ci).Value(r)); !ok {
							t.Error("a held table lost a dictionary entry")
						}
					}
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for qi := w; qi < len(qs); qi += 4 {
				if _, _, err := ex.Explain(qs[qi]); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	reader.Wait()

	for key, h := range held {
		got, want := imageOf(h), images[key]
		same := got.rows == want.rows && slices.EqualFunc(got.kinds, want.kinds, slices.Equal) &&
			slices.EqualFunc(got.f64, want.f64, slices.Equal) && slices.EqualFunc(got.i64, want.i64, slices.Equal) &&
			slices.EqualFunc(got.codes, want.codes, slices.Equal)
		for ci := range want.dict {
			same = same && slices.EqualFunc(got.dict[ci], want.dict[ci], func(a, b value.V) bool {
				return a.Kind() == b.Kind() && value.Equal(a, b)
			})
		}
		if !same {
			t.Errorf("grouping %q changed after the append", key)
		}
	}
	for key, tab := range cachedTables(ex) {
		if tab == held[key] {
			t.Errorf("grouping %q was not republished after the append", key)
		}
	}
	requireGroupingsCold(t, "after the append", ex, tab)
}
