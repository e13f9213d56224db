package explain

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cape/internal/engine"
	"cape/internal/pattern"
	"cape/internal/regress"
	"cape/internal/value"
)

// normTable builds a relation for the NORM differential: string and int
// group columns with NULLs, a float column holding NaN, an int column
// straddling 2^53 (2^53 and 2^53+1 round to one float64 but are
// distinct values), and int and float measures, the float one with NULLs and
// magnitudes that make its sums depend on fold order.
func normTable(rng *rand.Rand, rows int) *engine.Table {
	tab := engine.NewTable(engine.Schema{
		{Name: "a", Kind: value.String},
		{Name: "b", Kind: value.Int},
		{Name: "c", Kind: value.Int},
		{Name: "big", Kind: value.Int},
		{Name: "nan", Kind: value.Float},
		{Name: "x", Kind: value.Float},
		{Name: "y", Kind: value.Int},
	})
	const huge = 1 << 53
	bigs := []int64{huge, huge + 1, 7, -huge - 1}
	floats := []float64{0.5, 1.5, 2, math.NaN()}
	for i := 0; i < rows; i++ {
		a := value.NewString(string(rune('p' + rng.Intn(4))))
		if rng.Intn(10) == 0 {
			a = value.NewNull()
		}
		b := value.NewInt(int64(rng.Intn(3)))
		if rng.Intn(8) == 0 {
			b = value.NewNull()
		}
		x := value.NewFloat(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12))))
		if rng.Intn(12) == 0 {
			x = value.NewNull()
		}
		tab.MustAppend(value.Tuple{
			a, b, value.NewInt(int64(rng.Intn(4))),
			value.NewInt(bigs[rng.Intn(len(bigs))]), value.NewFloat(floats[rng.Intn(len(floats))]),
			x, value.NewInt(rng.Int63n(1000) - 500),
		})
	}
	return tab
}

// normPatterns lists every pattern that can be relevant to a question
// grouping by g under each aggregate: F a non-empty subset of g, V any
// subset of the rest (each attribute of g is in F, in V, or in neither).
func normPatterns(g []string, aggs []engine.AggSpec) []pattern.Pattern {
	var out []pattern.Pattern
	n := 1
	for range g {
		n *= 3
	}
	for code := 0; code < n; code++ {
		var f, v []string
		for i, c := 0, code; i < len(g); i, c = i+1, c/3 {
			switch c % 3 {
			case 1:
				f = append(f, g[i])
			case 2:
				v = append(v, g[i])
			}
		}
		if len(f) == 0 {
			continue
		}
		for _, agg := range aggs {
			out = append(out, pattern.Pattern{F: f, V: v, Agg: agg, Model: regress.Const})
		}
	}
	return out
}

// normEdge reports whether a NORM probe touches the NaN column or a
// value at magnitude ≥ 2^53, where a float64 comparison would disagree
// with the dictionary codes.
func normEdge(q UserQuestion, p pattern.Pattern) bool {
	attrs := p.GroupAttrs()
	vals, _ := q.Project(attrs)
	for i, a := range attrs {
		f, numeric := vals[i].AsFloat()
		if a == "nan" || (numeric && math.Abs(f) >= 1<<53) {
			return true
		}
	}
	return false
}

// TestNormFromGroupingMatchesSelection is the NORM differential: for
// every pattern that can be relevant to every question, over randomized
// tables, NORM read from the cached γ_{F∪V, agg}(R) must equal the
// oracle's literal σ-then-aggregate to the bit — on a dense Table and
// an in-memory SegTable at Parallelism 1 and 4; under count, sum, avg,
// min and max over int and float columns; with NULL group values, a
// question value absent from the data, a Float probe of an Int column,
// and NaN and 2^53 probes. No probe runs a selection: the dictionary
// codes answer them all.
func TestNormFromGroupingMatchesSelection(t *testing.T) {
	aggs := []engine.AggSpec{{Func: engine.Count}}
	for _, arg := range []string{"x", "y"} {
		for _, f := range []engine.AggFunc{engine.Count, engine.Sum, engine.Avg, engine.Min, engine.Max} {
			aggs = append(aggs, engine.AggSpec{Func: f, Arg: arg})
		}
	}
	shapes := [][]string{{"a", "b", "c"}, {"a", "big", "c"}, {"nan", "b", "c"}}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := normTable(rng, 250+rng.Intn(150))
		var qs []UserQuestion
		for _, g := range shapes {
			qs = append(qs, sampleQuestions(t, tab, g, 4)...)
			absent := qs[len(qs)-1]
			absent.Values = append(value.Tuple(nil), absent.Values...)
			absent.Values[len(g)-1] = value.NewInt(99)
			qs = append(qs, absent)
		}
		asFloat := qs[0] // {a, b, c}
		asFloat.Values = append(value.Tuple(nil), asFloat.Values...)
		if f, ok := asFloat.Values[1].AsFloat(); ok {
			asFloat.Values[1] = value.NewFloat(f)
		}
		qs = append(qs, asFloat)

		type probe struct {
			q    UserQuestion
			p    pattern.Pattern
			want float64
		}
		var probes []probe
		edges := 0
		for _, q := range qs {
			for _, p := range normPatterns(q.GroupBy, aggs) {
				probes = append(probes, probe{q: q, p: p, want: oracleNorm(tab, q, p)})
				if normEdge(q, p) {
					edges++
				}
			}
		}
		if edges == 0 {
			t.Fatalf("seed %d: no NaN or 2^53 probe", seed)
		}

		type variant struct {
			name string
			rel  engine.Relation
		}
		variants := []variant{{"dense", tab}}
		for _, par := range []int{1, 4} {
			st := segTableOf(t, tab, 3, 37)
			st.SetPool(engine.NewPool(par))
			variants = append(variants, variant{fmt.Sprintf("segtable/par=%d", par), st})
		}
		for _, vt := range variants {
			rel := newCountingRelation(vt.rel)
			lookup := newGroupCache().lookup(rel)
			for _, pr := range probes {
				g := &generator{q: pr.q, r: rel, lookup: lookup}
				got, err := g.norm(pr.p)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(pr.want) {
					t.Errorf("seed %d %s %v %s: NORM %v, oracle %v",
						seed, vt.name, pr.q.Values, pr.p, got, pr.want)
				}
			}
			if selects, _ := rel.counts(); selects != 0 {
				t.Errorf("seed %d %s: %d selections over %d NORMs (%d NaN or 2^53), want none",
					seed, vt.name, selects, len(probes), edges)
			}
		}
	}
}
