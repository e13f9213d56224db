package explain

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cape/internal/engine"
	"cape/internal/pattern"
	"cape/internal/regress"
)

// structuralRelevant is the linear reference for Index.Relevant: the
// question-independent half of Definition 5, checked pattern by pattern
// in slice order.
func structuralRelevant(patterns []*pattern.Mined, groupBy []string, agg engine.AggSpec) []int32 {
	in := make(map[string]bool, len(groupBy))
	for _, a := range groupBy {
		in[a] = true
	}
	var out []int32
	for i, m := range patterns {
		if m.Pattern.Agg != agg {
			continue
		}
		ok := true
		for _, a := range m.Pattern.F {
			ok = ok && in[a]
		}
		for _, a := range m.Pattern.V {
			ok = ok && in[a]
		}
		if ok {
			out = append(out, int32(i))
		}
	}
	return out
}

// randomPool draws n structurally-valid patterns (distinct F and V,
// disjoint, duplicates across patterns allowed) over the given attribute
// vocabulary — at least 5 attributes, or the draws cannot terminate —
// mixing count(*) with sum aggregates so bucket keys differ by aggregate
// as well as attribute set.
func randomPool(rng *rand.Rand, vocab []string, n int) []*pattern.Mined {
	if len(vocab) < 5 {
		panic("randomPool needs at least 5 attributes")
	}
	draw := func(k int, excl map[string]bool) []string {
		var out []string
		seen := make(map[string]bool)
		for len(out) < k {
			a := vocab[rng.Intn(len(vocab))]
			if seen[a] || excl[a] {
				continue
			}
			seen[a] = true
			out = append(out, a)
		}
		return out
	}
	pool := make([]*pattern.Mined, n)
	for i := range pool {
		f := draw(1+rng.Intn(3), nil)
		fset := make(map[string]bool, len(f))
		for _, a := range f {
			fset[a] = true
		}
		v := draw(1+rng.Intn(2), fset)
		agg := engine.AggSpec{Func: engine.Count}
		if rng.Intn(3) == 0 {
			agg = engine.AggSpec{Func: engine.Sum, Arg: "m"}
		}
		pool[i] = &pattern.Mined{Pattern: pattern.Pattern{F: f, V: v, Agg: agg, Model: regress.Const}}
	}
	return pool
}

// TestIndexRelevantMatchesLinearScan: for random pattern pools and
// random group-bys, Index.Relevant must return exactly the positions the
// linear structural scan finds, in the same ascending order — across
// both lookup strategies (subset enumeration for small group-bys,
// bucket scan once 2^|G| outgrows the bucket count or |G| exceeds
// maxEnumAttrs).
func TestIndexRelevantMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	vocab := make([]string, maxEnumAttrs+2)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("a%02d", i)
	}
	aggs := []engine.AggSpec{
		{Func: engine.Count},
		{Func: engine.Sum, Arg: "m"},
		{Func: engine.Avg, Arg: "m"}, // never mined: must return nothing
	}
	for trial := 0; trial < 40; trial++ {
		pool := randomPool(rng, vocab, 1+rng.Intn(60))
		ix := NewIndex(pool)
		for _, gSize := range []int{1, 2, 3, 5, len(vocab)} {
			g := make([]string, gSize)
			copy(g, vocab)
			rng.Shuffle(len(vocab), func(i, j int) { vocab[i], vocab[j] = vocab[j], vocab[i] })
			copy(g, vocab[:gSize])
			for _, agg := range aggs {
				got := ix.Relevant(g, agg)
				want := structuralRelevant(pool, g, agg)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d |pool|=%d g=%v agg=%s:\n index:  %v\n linear: %v",
						trial, len(pool), g, agg, got, want)
				}
			}
		}
	}
}

// TestIndexRefinementsMatchLinearScan: the precomputed adjacency must
// reproduce refinementsOf — same patterns, same order — for every
// pattern in the pool, including pools whose F sets exceed maxEnumAttrs
// (the subset-enumeration fallback in buildRefs).
func TestIndexRefinementsMatchLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vocab := make([]string, maxEnumAttrs+4)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("a%02d", i)
	}
	for trial := 0; trial < 30; trial++ {
		pool := randomPool(rng, vocab, 1+rng.Intn(50))
		if trial%3 == 0 {
			// Wide-F patterns past the enumeration cutoff: one pattern
			// refines the other, exercising the subsetSorted fallback.
			wideV := []string{vocab[len(vocab)-1]}
			wideF := append([]string(nil), vocab[:maxEnumAttrs+1]...)
			agg := engine.AggSpec{Func: engine.Count}
			pool = append(pool,
				&pattern.Mined{Pattern: pattern.Pattern{F: wideF[:2], V: wideV, Agg: agg, Model: regress.Const}},
				&pattern.Mined{Pattern: pattern.Pattern{F: wideF, V: wideV, Agg: agg, Model: regress.Const}},
			)
		}
		ix := NewIndex(pool)
		for i, m := range pool {
			got := ix.Refinements(m)
			want := refinementsOf(m, pool)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d pattern %d (%s): adjacency diverges\n index:  %d refs\n linear: %d refs",
					trial, i, m.Pattern, len(got), len(want))
			}
			found := false
			for _, r := range got {
				found = found || r == m
			}
			if !found {
				t.Fatalf("trial %d pattern %d: refinement list must include the pattern itself", trial, i)
			}
		}
	}
}

// TestIndexOutsidePatternFallsBack: Refinements on a pattern the index
// never saw degrades to the linear scan instead of misbehaving.
func TestIndexOutsidePatternFallsBack(t *testing.T) {
	pool := randomPool(rand.New(rand.NewSource(3)), []string{"a", "b", "c", "d", "e", "f"}, 20)
	ix := NewIndex(pool)
	stranger := &pattern.Mined{Pattern: pattern.Pattern{
		F: []string{"a"}, V: []string{"b"}, Agg: engine.AggSpec{Func: engine.Count}, Model: regress.Const,
	}}
	got := ix.Refinements(stranger)
	want := refinementsOf(stranger, pool)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("outside-pattern fallback diverges: %d vs %d refs", len(got), len(want))
	}
}

func TestIndexStatsShape(t *testing.T) {
	pool := randomPool(rand.New(rand.NewSource(5)), []string{"a", "b", "c", "d", "e"}, 12)
	st := NewIndex(pool).Stats()
	if st.Patterns != len(pool) {
		t.Errorf("Stats.Patterns = %d, want %d", st.Patterns, len(pool))
	}
	if st.Buckets <= 0 || st.MaxBucket <= 0 || st.RefEdges < len(pool) {
		t.Errorf("degenerate stats: %+v", st)
	}
	empty := NewIndex(nil)
	if got := empty.Relevant([]string{"a"}, engine.AggSpec{Func: engine.Count}); got != nil {
		t.Errorf("empty index returned %v", got)
	}
	if st := empty.Stats(); st.Patterns != 0 || st.Buckets != 0 {
		t.Errorf("empty index stats: %+v", st)
	}
}

// TestIndexedGenerationByteIdentical: GenOpt, GenNaive, and
// GenerateBatch must produce exactly the same explanations AND stats
// with the index as with opt.LinearScan — the index prefilters, it never
// changes what is computed. Parallelism is pinned to 1 so every stats
// counter is deterministic.
func TestIndexedGenerationByteIdentical(t *testing.T) {
	tab := runningExample(t)
	pats := minePatterns(t, tab)
	questions := []UserQuestion{sigkddQuestion()}
	{
		q := sigkddQuestion()
		q.Dir = High // no explanations on this one: identical emptiness matters too
		questions = append(questions, q)
	}

	for _, k := range []int{1, 5, 25} {
		indexed := Options{K: k, Metric: yearMetric(), Parallelism: 1}
		linear := indexed
		linear.LinearScan = true
		for qi, q := range questions {
			for name, gen := range map[string]func(UserQuestion, engine.Relation, []*pattern.Mined, Options) ([]Explanation, *Stats, error){
				"GenOpt": GenOpt, "GenNaive": GenNaive,
			} {
				ei, si, err := gen(q, tab, pats, indexed)
				if err != nil {
					t.Fatal(err)
				}
				el, sl, err := gen(q, tab, pats, linear)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ei, el) {
					t.Errorf("%s k=%d q%d: explanations diverge (%d vs %d)", name, k, qi, len(ei), len(el))
				}
				if !reflect.DeepEqual(si, sl) {
					t.Errorf("%s k=%d q%d: stats diverge: %+v vs %+v", name, k, qi, si, sl)
				}
			}
		}
		bad := UserQuestion{GroupBy: []string{"x", "x"}}
		batchQs := append(append([]UserQuestion(nil), questions...), bad)
		bi := GenerateBatch(batchQs, tab, pats, indexed)
		bl := GenerateBatch(batchQs, tab, pats, linear)
		if len(bi) != len(bl) {
			t.Fatalf("batch lengths diverge: %d vs %d", len(bi), len(bl))
		}
		for i := range bi {
			if (bi[i].Err == nil) != (bl[i].Err == nil) {
				t.Errorf("batch k=%d item %d: error presence diverges: %v vs %v", k, i, bi[i].Err, bl[i].Err)
				continue
			}
			if bi[i].Err != nil {
				if bi[i].Err.Error() != bl[i].Err.Error() {
					t.Errorf("batch k=%d item %d: errors diverge: %v vs %v", k, i, bi[i].Err, bl[i].Err)
				}
				continue
			}
			if !reflect.DeepEqual(bi[i].Explanations, bl[i].Explanations) {
				t.Errorf("batch k=%d item %d: explanations diverge", k, i)
			}
			if !reflect.DeepEqual(bi[i].Stats, bl[i].Stats) {
				t.Errorf("batch k=%d item %d: stats diverge: %+v vs %+v", k, i, bi[i].Stats, bl[i].Stats)
			}
		}
	}
}

// TestExplainerUsesIndex: the warm Explainer path answers through its
// prebuilt index and must match a fresh linear-scan GenOpt call.
func TestExplainerUsesIndex(t *testing.T) {
	tab := runningExample(t)
	pats := minePatterns(t, tab)
	ex := NewExplainer(tab, pats, Options{K: 10, Metric: yearMetric(), Parallelism: 1})
	if st := ex.IndexStats(); st.Patterns != len(pats) {
		t.Fatalf("explainer index covers %d of %d patterns", st.Patterns, len(pats))
	}
	q := sigkddQuestion()
	ei, si, err := ex.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	el, sl, err := GenOpt(q, tab, pats, Options{K: 10, Metric: yearMetric(), Parallelism: 1, LinearScan: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ei, el) || !reflect.DeepEqual(si, sl) {
		t.Fatalf("explainer diverges from linear reference")
	}
}
