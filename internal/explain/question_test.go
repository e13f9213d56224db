package explain

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"cape/internal/distance"
	"cape/internal/engine"
	"cape/internal/value"
)

// selectEqQuestion is the reference resolution of a user question: a
// cold GroupBy of the relation, then SelectEq on the grouped table.
func selectEqQuestion(rel engine.Relation, groupBy []string, agg engine.AggSpec, values value.Tuple, dir Direction) (UserQuestion, error) {
	grouped, err := rel.GroupBy(groupBy, []engine.AggSpec{agg})
	if err != nil {
		return UserQuestion{}, err
	}
	sel, err := grouped.SelectEq(groupBy, values)
	if err != nil {
		return UserQuestion{}, err
	}
	if sel.NumRows() == 0 {
		return UserQuestion{}, fmt.Errorf("tuple %v is not a result of the question query", []value.V(values))
	}
	return UserQuestion{GroupBy: groupBy, Agg: agg, Values: values, AggValue: sel.Col(len(groupBy)).Value(0), Dir: dir}, nil
}

// requireSameQuestion asserts two resolutions agree field by field —
// values with their kinds, floats to the bit — or fail with the same
// error text.
func requireSameQuestion(t *testing.T, label string, got UserQuestion, gotErr error, want UserQuestion, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, want %v", label, gotErr, wantErr)
	}
	same := func(a, b value.V) bool {
		return a.Kind() == b.Kind() && value.Equal(a, b) &&
			(a.Kind() != value.Float || math.Float64bits(a.Float()) == math.Float64bits(b.Float()))
	}
	ok := slices.Equal(got.GroupBy, want.GroupBy) && got.Agg == want.Agg && got.Dir == want.Dir &&
		len(got.Values) == len(want.Values) && same(got.AggValue, want.AggValue)
	for i := range want.Values {
		ok = ok && same(got.Values[i], want.Values[i])
	}
	if !ok {
		t.Fatalf("%s: question %+v, want %+v", label, got, want)
	}
}

// probeTuples draws n tuples over the shape's columns from values the
// epoch relation holds and values it does not, with Int/Float-equal,
// ±0 and NaN spellings of the stored keys.
func probeTuples(rng *rand.Rand, shape []string, n int) []value.Tuple {
	domain := map[string][]value.V{
		"a": {value.NewString("A"), value.NewString("C"), value.NewString("F"), value.NewString("Q")},
		"b": {value.NewInt(0), value.NewInt(2), value.NewFloat(1), value.NewFloat(1.5), value.NewInt(9)},
		"f": {value.NewFloat(0.5), value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewInt(0),
			value.NewFloat(math.NaN()), value.NewFloat(2.5)},
		"x": {value.NewInt(-3), value.NewInt(7), value.NewFloat(7), value.NewNull()},
	}
	out := make([]value.Tuple, n)
	for i := range out {
		tu := make(value.Tuple, len(shape))
		for j, c := range shape {
			tu[j] = domain[c][rng.Intn(len(domain[c]))]
		}
		out[i] = tu
	}
	return out
}

// TestQuestionMatchesSelectEq is the differential of question
// resolution. A seeded append sequence — new groups, a Float landing in
// the Int-only measure x (sum(x) turns Float), ±0 and NaN keys, a
// Compact — runs over a Table and a SegTable, each served by one
// long-lived Explainer. At every epoch, Explainer.Question equals the
// cold GroupBy + SelectEq resolution field by field, and fails with the
// same error, for groups spread over every shape, for probe tuples that
// spell stored keys differently or miss, and for malformed questions.
func TestQuestionMatchesSelectEq(t *testing.T) {
	count := engine.AggSpec{Func: engine.Count}
	sumX := engine.AggSpec{Func: engine.Sum, Arg: "x"}
	maxX := engine.AggSpec{Func: engine.Max, Arg: "x"}
	shapes := [][]string{{"a", "b", "f"}, {"a", "b"}, {"b", "a"}, {"f"}, {"f", "x"}}
	resolved, floatSums, misses := 0, 0, 0
	for seed := int64(0); seed < 2; seed++ {
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
		pats := mineEpoch(t, tab)
		exs := make([]*Explainer, len(rels))
		for ri, rel := range rels {
			exs[ri] = NewExplainer(rel, pats, Options{Parallelism: 1})
		}
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
			for ri, rel := range rels {
				check := func(label string, groupBy []string, agg engine.AggSpec, values value.Tuple, dir Direction) {
					t.Helper()
					want, wantErr := selectEqQuestion(rel, groupBy, agg, values, dir)
					got, gotErr := exs[ri].Question(groupBy, agg, values, dir)
					requireSameQuestion(t, fmt.Sprintf("seed %d epoch %d %T %s", seed, epoch, rel, label), got, gotErr, want, wantErr)
					switch {
					case gotErr == nil:
						resolved++
						if agg == sumX && got.AggValue.Kind() == value.Float {
							floatSums++
						}
					default:
						misses++
					}
				}
				for _, g := range shapes {
					for _, agg := range []engine.AggSpec{count, sumX, maxX} {
						grouped, err := rel.GroupBy(g, []engine.AggSpec{agg})
						if err != nil {
							t.Fatal(err)
						}
						for i := 0; i < grouped.NumRows(); i += 1 + grouped.NumRows()/16 {
							check(fmt.Sprintf("%v %s group %d", g, agg, i), g, agg, grouped.Row(i)[:len(g)], Direction(i%2))
						}
						for i, tu := range probeTuples(rng, g, 12) {
							check(fmt.Sprintf("%v %s probe %d %v", g, agg, i, tu), g, agg, tu, High)
						}
					}
				}
				a := value.Tuple{value.NewString("A")}
				check("unknown column", []string{"zz"}, count, a, Low)
				check("unknown argument", []string{"a"}, engine.AggSpec{Func: engine.Sum, Arg: "zz"}, a, Low)
				check("short tuple", []string{"a", "b"}, count, a, Low)
			}
		}
	}
	if resolved == 0 || floatSums == 0 || misses == 0 {
		t.Fatalf("%d resolved, %d Float sum(x) values, %d misses: the sequence exercises too little", resolved, floatSums, misses)
	}
}

// TestQuestionScansNothing is the exact-work gate of question
// resolution, in the style of TestExplainerWarmScansNothing. Once an
// Explainer has answered every question of some shapes — one of them in
// a column order no pattern enumerates — resolving and answering a
// question it has not seen touches the relation not at all: no
// group-by, no row scan. After one append, each question
// grouping folds exactly the appended rows, once, and every resolution
// still equals the cold GroupBy + SelectEq one.
func TestQuestionScansNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := randomBatchTable(rng, 300)
	pats := mineLenient(t, tab, []string{"author", "venue", "year"})
	rel := newCountingRelation(tab)
	opt := Options{K: 10, Metric: yearMetric(), Parallelism: 2}
	ex := NewExplainer(rel, pats, opt)
	count := engine.AggSpec{Func: engine.Count}
	shapes := [][]string{{"author", "venue", "year"}, {"author", "year"}, {"year", "venue", "author"}}
	if ex.cache.patternKeys[groupingKey(shapes[2], count)] {
		t.Fatalf("shape %v is a pattern grouping; the test needs a question-only one", shapes[2])
	}

	// Warm-up: every group, answered with a k that prunes nothing, so
	// every grouping a question of these shapes reaches is cached; only
	// the even groups are resolved through Question.
	var fresh []UserQuestion
	for _, g := range shapes {
		for i, q := range sampleQuestions(t, tab, g, tab.NumRows()) {
			if i%2 == 0 {
				if _, err := ex.Question(q.GroupBy, q.Agg, q.Values, q.Dir); err != nil {
					t.Fatal(err)
				}
			} else {
				q.Dir = 1 - q.Dir // a direction the warm-up never asked
				fresh = append(fresh, q)
			}
			if _, _, err := ex.ExplainOpts(q, Options{K: 1 << 30}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rel.reset()
	for qi, want := range fresh {
		q, err := ex.Question(want.GroupBy, want.Agg, want.Values, want.Dir)
		requireSameQuestion(t, fmt.Sprintf("warm q%d", qi), q, err, want, nil)
		got, _, err := ex.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		wantExpls, _, err := GenOpt(q, tab, pats, Options{K: 10, Metric: yearMetric()})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("warm q%d", qi), wantExpls, got)
	}
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
	before := tab.NumRows()
	if err := tab.AppendRows(randomBatchTable(rand.New(rand.NewSource(4)), 60).Rows()); err != nil {
		t.Fatal(err)
	}
	rel.reset()
	for _, g := range shapes {
		for qi, q := range sampleQuestions(t, tab, g, 8) {
			want, wantErr := selectEqQuestion(tab, g, count, q.Values, q.Dir)
			got, err := ex.Question(g, count, q.Values, q.Dir)
			requireSameQuestion(t, fmt.Sprintf("appended %v q%d", g, qi), got, err, want, wantErr)
		}
	}
	if groupBys := rel.counts(); len(groupBys) != 0 {
		t.Errorf("appended: %d group-bys, want none", len(groupBys))
	}
	scans := rel.scanned()
	if len(folded) != len(shapes) || len(scans) != len(shapes) {
		t.Errorf("appended: %d groupings caught up with %d row scans, want one each for %d shapes", len(folded), len(scans), len(shapes))
	}
	for _, g := range shapes {
		if n := folded[groupingKey(g, count)]; n != 1 {
			t.Errorf("appended: question grouping %v caught up %d times, want 1", g, n)
		}
	}
	for _, sc := range scans {
		if sc != [2]int{before, tab.NumRows()} {
			t.Errorf("appended: a grouping read rows [%d, %d), want exactly the appended [%d, %d)",
				sc[0], sc[1], before, tab.NumRows())
		}
	}
}

// orderedSubsets lists every non-empty ordered selection of distinct
// columns, shortest first.
func orderedSubsets(cols []string) [][]string {
	var out [][]string
	var grow func(prefix []string)
	grow = func(prefix []string) {
		for _, c := range cols {
			if slices.Contains(prefix, c) {
				continue
			}
			next := append(slices.Clone(prefix), c)
			out = append(out, next)
			grow(next)
		}
	}
	grow(nil)
	slices.SortStableFunc(out, func(a, b []string) int { return len(a) - len(b) })
	return out
}

// TestQuestionGroupingsBounded asks about more distinct shapes than
// questionGroupings, one shape again after every other. The cache never
// holds more than the pattern set's groupings plus the bound, the least
// recently asked shapes go first (the re-asked one stays), and
// re-asking an evicted shape answers exactly as the first time and as a
// fresh Explainer does.
func TestQuestionGroupingsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := engine.NewTable(epochSchema)
	if err := tab.AppendRows(epochRows(rng, 200, 4, false)); err != nil {
		t.Fatal(err)
	}
	pats := mineEpoch(t, tab)
	opt := Options{K: 6, Metric: distance.NewMetric().SetFunc("b", distance.Numeric{Scale: 2}), Parallelism: 1}
	ex := NewExplainer(tab, pats, opt)
	patternGroupings := make(map[string]bool)
	for _, m := range pats {
		patternGroupings[groupKey(m.Pattern)] = true
	}
	count := engine.AggSpec{Func: engine.Count}

	type answer struct {
		q     UserQuestion
		expls []Explanation
	}
	ask := func(ex *Explainer, g []string) answer {
		t.Helper()
		grouped, err := tab.GroupBy(g, []engine.AggSpec{count})
		if err != nil {
			t.Fatal(err)
		}
		q, err := ex.Question(g, count, grouped.Row(grouped.NumRows() / 2)[:len(g)], High)
		if err != nil {
			t.Fatal(err)
		}
		expls, _, err := ex.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		return answer{q, expls}
	}
	// The first shape, one column, is question-only; it is asked again
	// after every other shape, so it is never the least recently asked.
	shapes := orderedSubsets([]string{"a", "b", "f", "x"})
	hot := shapes[0]
	hotBuilds := 0
	ex.cache.onCompute = func(key string) {
		if key == groupingKey(hot, count) {
			hotBuilds++
		}
	}
	var questionOnly [][]string // besides hot
	first := make(map[string]answer)
	for _, g := range shapes {
		key := groupingKey(g, count)
		first[key] = ask(ex, g)
		if !patternGroupings[key] && !slices.Equal(g, hot) {
			questionOnly = append(questionOnly, g)
		}
		requireSameExplanations(t, fmt.Sprintf("%v after %v", hot, g), first[groupingKey(hot, count)].expls, ask(ex, hot).expls)
		if n := ex.CachedGroupings(); n > len(patternGroupings)+questionGroupings {
			t.Fatalf("after shape %v: %d cached groupings, want at most %d pattern groupings + %d",
				g, n, len(patternGroupings), questionGroupings)
		}
	}
	if len(questionOnly) <= questionGroupings {
		t.Fatalf("only %d question-only shapes: the bound is never reached", len(questionOnly))
	}
	if hotBuilds != 1 {
		t.Errorf("shape %v, asked after every other, was grouped %d times, want once", hot, hotBuilds)
	}
	for i, g := range questionOnly {
		held := ex.cache.holds(groupingKey(g, count))
		if recent := i >= len(questionOnly)-(questionGroupings-1); held != recent {
			t.Errorf("question-only shape %v (%d of %d): held %v, want %v", g, i, len(questionOnly), held, recent)
		}
	}
	for _, g := range questionOnly[:3] {
		key := groupingKey(g, count)
		again := ask(ex, g)
		requireSameQuestion(t, fmt.Sprintf("re-asked %v", g), again.q, nil, first[key].q, nil)
		requireSameExplanations(t, fmt.Sprintf("re-asked %v", g), first[key].expls, again.expls)
		requireSameExplanations(t, fmt.Sprintf("re-asked %v vs fresh", g), ask(NewExplainer(tab, pats, opt), g).expls, again.expls)
	}
	if n := ex.CachedGroupings(); n > len(patternGroupings)+questionGroupings {
		t.Errorf("after re-asking: %d cached groupings, want at most %d", n, len(patternGroupings)+questionGroupings)
	}
}

// TestQuestionConcurrent resolves questions over more shapes than the
// bound from several goroutines at once, so evictions race with builds
// and with readers of the evicted tables; run under -race. Every
// resolution equals the cold GroupBy + SelectEq one, and the bound holds
// once they are done.
func TestQuestionConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tab := engine.NewTable(epochSchema)
	if err := tab.AppendRows(epochRows(rng, 120, 4, true)); err != nil {
		t.Fatal(err)
	}
	pats := mineEpoch(t, tab)
	ex := NewExplainer(tab, pats, Options{Parallelism: 2})
	sumX := engine.AggSpec{Func: engine.Sum, Arg: "x"}
	type ask struct {
		g    []string
		vals value.Tuple
		want UserQuestion
	}
	var asks []ask
	for _, g := range orderedSubsets([]string{"a", "b", "f", "x"}) {
		grouped, err := tab.GroupBy(g, []engine.AggSpec{sumX})
		if err != nil {
			t.Fatal(err)
		}
		vals := grouped.Row(0)[:len(g)]
		want, err := selectEqQuestion(tab, g, sumX, vals, Low)
		if err != nil {
			t.Fatal(err)
		}
		asks = append(asks, ask{g, vals, want})
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range asks {
				a := asks[(i*(w+1)+w)%len(asks)]
				got, err := ex.Question(a.g, sumX, a.vals, Low)
				if err != nil {
					t.Error(err)
					return
				}
				if got.AggValue.Kind() != a.want.AggValue.Kind() || !value.Equal(got.AggValue, a.want.AggValue) {
					t.Errorf("%v %v: aggregate %v, want %v", a.g, a.vals, got.AggValue, a.want.AggValue)
				}
			}
		}(w)
	}
	wg.Wait()
	patternGroupings := make(map[string]bool)
	for _, m := range pats {
		patternGroupings[groupKey(m.Pattern)] = true
	}
	if n := ex.CachedGroupings(); n > len(patternGroupings)+questionGroupings {
		t.Errorf("%d cached groupings, want at most %d pattern groupings + %d", n, len(patternGroupings), questionGroupings)
	}
}

// TestWarmQuestionProbesByKey: a warm question finds its tuple through
// the retained grouping's canonical-key lookup, never by a SelectEq
// scan of the grouped table. A SelectEq over the grouping allocates the
// selection it returns; a warm resolution allocates only its grouping
// key — for a pattern grouping, for a question-only one (a column order
// no pattern enumerates), and once the grouping has folded an append.
func TestWarmQuestionProbesByKey(t *testing.T) {
	tab := randomBatchTable(rand.New(rand.NewSource(3)), 300)
	pats := mineLenient(t, tab, []string{"author", "venue", "year"})
	ex := NewExplainer(tab, pats, Options{Parallelism: 1})
	count := engine.AggSpec{Func: engine.Count}
	shapes := [][]string{{"author", "venue", "year"}, {"year", "venue", "author"}}
	if !ex.cache.patternKeys[groupingKey(shapes[0], count)] || ex.cache.patternKeys[groupingKey(shapes[1], count)] {
		t.Fatalf("shapes %v: the test needs one pattern grouping and one question-only grouping", shapes)
	}
	check := func(label string) {
		t.Helper()
		for _, g := range shapes {
			grouped, err := tab.GroupBy(g, []engine.AggSpec{count})
			if err != nil {
				t.Fatal(err)
			}
			q := sampleQuestions(t, tab, g, 1)[0]
			want, wantErr := selectEqQuestion(tab, g, count, q.Values, q.Dir)
			got, err := ex.Question(g, count, q.Values, q.Dir) // warms the grouping
			requireSameQuestion(t, fmt.Sprintf("%s %v", label, g), got, err, want, wantErr)
			scan := testing.AllocsPerRun(20, func() {
				if _, err := grouped.SelectEq(g, q.Values); err != nil {
					t.Fatal(err)
				}
			})
			probe := testing.AllocsPerRun(20, func() {
				if _, err := ex.Question(g, count, q.Values, q.Dir); err != nil {
					t.Fatal(err)
				}
			})
			if probe > 3 || probe >= scan {
				t.Errorf("%s %v: a warm question allocates %v times, a SelectEq over its %d groups %v: the question scans",
					label, g, probe, grouped.NumRows(), scan)
			}
		}
	}
	check("built")
	if err := tab.AppendRows(randomBatchTable(rand.New(rand.NewSource(4)), 40).Rows()); err != nil {
		t.Fatal(err)
	}
	check("appended")
}

// TestSupersededEntryFinds: a reader still holding a grouping's entry of
// an older epoch, after a later epoch moved the grouping on, resolves
// tuples against the older table: a group the append created is not
// there, a grown group keeps its older aggregate, and a rebuild that
// renumbered the groups (SortBy rewrote the rows) changes neither.
func TestSupersededEntryFinds(t *testing.T) {
	c := newGroupCache()
	tab := engine.NewTable(engine.Schema{{Name: "a", Kind: value.Int}})
	for _, v := range []int64{2, 2, 1} {
		tab.MustAppend(value.Tuple{value.NewInt(v)})
	}
	count := engine.AggSpec{Func: engine.Count}
	cols := []string{"a"}
	get := func() *cacheEntry {
		t.Helper()
		e, err := c.get(tab, "k", cols, count)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	type probe struct {
		key  int64
		ok   bool
		want int64
	}
	check := func(label string, e *cacheEntry, probes ...probe) {
		t.Helper()
		for _, p := range probes {
			got, ok, err := e.find(cols, value.Tuple{value.NewFloat(float64(p.key))})
			if err != nil || ok != p.ok || (ok && got.Int() != p.want) {
				t.Errorf("%s, key %d: %v %v %v, want %v %d", label, p.key, got, ok, err, p.ok, p.want)
			}
		}
	}
	first := get()
	tab.MustAppend(value.Tuple{value.NewInt(1)})
	tab.MustAppend(value.Tuple{value.NewInt(3)})
	// Readers of the first entry probe while the next lookup folds the
	// appended rows into the grouping they share (run it under -race).
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				if got, ok, err := first.find(cols, value.Tuple{value.NewInt(1)}); err != nil || !ok || got.Int() != 1 {
					t.Errorf("first, probed during the catch-up: %v %v %v, want true 1", got, ok, err)
					return
				}
			}
		}()
	}
	folded := get()
	wg.Wait()
	if err := tab.SortBy(cols); err != nil {
		t.Fatal(err)
	}
	rebuilt := get()
	if first == folded || folded == rebuilt {
		t.Fatal("the appends and the sort did not supersede the entry")
	}
	check("first", first, probe{2, true, 2}, probe{1, true, 1}, probe{3, false, 0})
	check("folded", folded, probe{2, true, 2}, probe{1, true, 2}, probe{3, true, 1})
	check("rebuilt", rebuilt, probe{2, true, 2}, probe{1, true, 2}, probe{3, true, 1})
	if _, _, err := first.find(cols, nil); err == nil {
		t.Error("a tuple of the wrong arity resolved")
	}

	// A catch-up that fails after folding a new group publishes nothing;
	// the entry before it still answers for its own table.
	tab.MustAppend(value.Tuple{value.NewInt(4)})
	tab.MustAppend(value.Tuple{value.NewInt(4)})
	if _, err := c.get(failAfterOneRow{tab}, "k", cols, count); err == nil {
		t.Fatal("the failing catch-up succeeded")
	}
	check("before the failed catch-up", rebuilt, probe{4, false, 0}, probe{1, true, 2})
}

// failAfterOneRow fails every row scan after its first row.
type failAfterOneRow struct{ engine.MutableRelation }

func (f failAfterOneRow) ScanRows(lo, hi int, fn func(row value.Tuple) error) error {
	return f.MutableRelation.ScanRows(lo, lo+1, func(row value.Tuple) error {
		if err := fn(row); err != nil {
			return err
		}
		return fmt.Errorf("scan of rows [%d, %d) failed", lo, hi)
	})
}
