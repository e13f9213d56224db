package mining

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cape/internal/dataset"
	"cape/internal/engine"
	"cape/internal/oracle"
	"cape/internal/pattern"
	"cape/internal/regress"
	"cape/internal/value"
)

// oracleRel is an engine.Relation whose operators internal/oracle
// answers literally over a fixed slice of rows, each result wrapped in
// a Table with the engine's output schema.
type oracleRel struct {
	schema engine.Schema
	rows   []value.Tuple
}

func oracleOf(t *engine.Table) *oracleRel { return &oracleRel{schema: t.Schema(), rows: t.Rows()} }

func (o *oracleRel) Schema() engine.Schema { return o.schema }
func (o *oracleRel) NumRows() int          { return len(o.rows) }
func (o *oracleRel) Epoch() uint64         { return 0 }

var oracleFuncs = map[engine.AggFunc]oracle.Func{
	engine.Count: oracle.Count, engine.Sum: oracle.Sum, engine.Avg: oracle.Avg,
	engine.Min: oracle.Min, engine.Max: oracle.Max,
}

// plan resolves cols and aggs; sch is cols' columns.
func (o *oracleRel) plan(cols []string, aggs []engine.AggSpec) (idx []int, oaggs []oracle.Agg, sch engine.Schema, err error) {
	if idx, err = o.schema.Indices(cols); err != nil {
		return nil, nil, nil, err
	}
	for _, ci := range idx {
		sch = append(sch, o.schema[ci])
	}
	for _, a := range aggs {
		arg := -1
		if !a.IsStar() {
			arg = o.schema.Index(a.Arg)
		}
		oaggs = append(oaggs, oracle.Agg{Func: oracleFuncs[a.Func], Arg: arg})
	}
	return idx, oaggs, sch, nil
}

func tableOf(sch engine.Schema, aggs []engine.AggSpec, rows []value.Tuple) (*engine.Table, error) {
	for _, a := range aggs {
		sch = append(sch, engine.Column{Name: a.String(), Kind: value.Null})
	}
	out := engine.NewTable(sch)
	return out, out.AppendRows(rows)
}

func (o *oracleRel) GroupBy(cols []string, aggs []engine.AggSpec) (*engine.Table, error) {
	idx, oaggs, sch, err := o.plan(cols, aggs)
	if err != nil {
		return nil, err
	}
	return tableOf(sch, aggs, oracle.GroupBy(o.rows, idx, oaggs))
}

func (o *oracleRel) CountDistinct(cols []string) (int, error) {
	idx, _, _, err := o.plan(cols, nil)
	if err != nil {
		return 0, err
	}
	return oracle.CountDistinct(o.rows, idx), nil
}

// requireResultsIdentical deep-compares two mining results: counters,
// pattern order, and every local model field with exact float equality.
func requireResultsIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.Candidates != got.Candidates || want.SkippedByFD != got.SkippedByFD {
		t.Fatalf("%s: counters %d/%d vs %d/%d",
			label, want.Candidates, want.SkippedByFD, got.Candidates, got.SkippedByFD)
	}
	if len(want.Patterns) != len(got.Patterns) {
		t.Fatalf("%s: %d vs %d patterns", label, len(want.Patterns), len(got.Patterns))
	}
	for i := range want.Patterns {
		w, g := want.Patterns[i], got.Patterns[i]
		if w.Pattern.Key() != g.Pattern.Key() {
			t.Fatalf("%s: pattern %d key %q vs %q", label, i, w.Pattern.Key(), g.Pattern.Key())
		}
		if w.NumFragments != g.NumFragments || w.NumSupported != g.NumSupported ||
			w.Confidence != g.Confidence ||
			w.MaxPosDev != g.MaxPosDev || w.MaxNegDev != g.MaxNegDev {
			t.Fatalf("%s: pattern %q global stats differ", label, w.Pattern.Key())
		}
		if len(w.Locals) != len(g.Locals) {
			t.Fatalf("%s: pattern %q has %d vs %d locals",
				label, w.Pattern.Key(), len(w.Locals), len(g.Locals))
		}
		for key, wl := range w.Locals {
			gl, ok := g.Locals[key]
			if !ok {
				t.Fatalf("%s: pattern %q missing fragment %q", label, w.Pattern.Key(), key)
			}
			requireLocalsIdentical(t, label, w.Pattern.Key(), key, wl, gl)
		}
	}
}

func requireLocalsIdentical(t *testing.T, label, pat, frag string, w, g *pattern.LocalModel) {
	t.Helper()
	if !w.Frag.Equal(g.Frag) || w.Support != g.Support ||
		w.MaxPosDev != g.MaxPosDev || w.MaxNegDev != g.MaxNegDev ||
		w.Model.GoF() != g.Model.GoF() {
		t.Fatalf("%s: pattern %q fragment %q local model differs", label, pat, frag)
	}
	wp, gp := w.Model.Params(), g.Model.Params()
	if len(wp) != len(gp) {
		t.Fatalf("%s: pattern %q fragment %q param arity differs", label, pat, frag)
	}
	for i := range wp {
		if wp[i] != gp[i] {
			t.Fatalf("%s: pattern %q fragment %q param %d: %v vs %v",
				label, pat, frag, i, wp[i], gp[i])
		}
	}
}

// TestMiningMatchesOracle pins the whole mining pipeline over the
// engine's kernels (group-by, sort codes, shared fitter inputs)
// bit-for-bit to the same miners over a relation the oracle answers:
// identical patterns, local model parameters, and Stats counters.
func TestMiningMatchesOracle(t *testing.T) {
	tab := testTable(t, 500)
	ref := oracleOf(tab)
	for _, useFDs := range []bool{false, true} {
		opt := lenientOpts()
		opt.UseFDs = useFDs
		want, err := ARPMine(ref, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ARPMine(tab, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Patterns) == 0 {
			t.Fatal("mining over the oracle found no patterns")
		}
		requireResultsIdentical(t, "ARPMine", want, got)
	}

	opt := lenientOpts()
	want, err := ShareGrp(ref, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ShareGrp(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireResultsIdentical(t, "ShareGrp", want, got)
}

// TestMiningStatsDeterministicSequential: at Parallelism 1 the columnar
// kernels must make every repeated run identical — Candidates and
// SkippedByFD exactly, plus every pattern and local model — so the
// counters reported by the benchmarks and the server are reproducible.
func TestMiningStatsDeterministicSequential(t *testing.T) {
	tab := testTable(t, 500)
	opt := lenientOpts()
	opt.Parallelism = 1
	first, err := ARPMine(tab, opt)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		again, err := ARPMine(tab, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireResultsIdentical(t, "repeat run", first, again)
	}
}

// fitOrder is the order the miners fit a split's points in: the
// predictor sequence of the sort order of the grouping's cover whose
// prefix is F. Every subset of g is a prefix of exactly one order of
// the cover, so each split is fitted under exactly that one.
func fitOrder(g, f, v []string) []string {
	for _, s := range sortOrderCover(g) {
		if len(pattern.SortedSet(s[:len(f)], f)) == len(f) {
			return s[len(f):]
		}
	}
	panic("split outside its grouping's sort-order cover")
}

// shareGrpOrder is the order ShareGrp fits a split's points in: it
// sorts each split by F then V, both in the grouping's attribute order.
func shareGrpOrder(g, f, v []string) []string { return v }

// literalMine runs oracle.Mine over tab under opt, fitting each split's
// points in the order order names.
func literalMine(t *testing.T, tab *engine.Table, opt Options, order func(g, f, v []string) []string) []oracle.MinedPattern {
	t.Helper()
	opt, err := opt.withDefaults(tab)
	if err != nil {
		t.Fatal(err)
	}
	sch := tab.Schema()
	numeric := make([]bool, len(sch))
	for i, c := range sch {
		numeric[i] = c.Kind == value.Int || c.Kind == value.Float || c.Kind == value.Null
	}
	lit := oracle.MineOptions{
		Attrs: opt.Attributes, Psi: opt.MaxPatternSize, Models: opt.Models,
		Theta: opt.Thresholds.Theta, LocalSupport: opt.Thresholds.LocalSupport,
		Lambda: opt.Thresholds.Lambda, GlobalSupport: opt.Thresholds.GlobalSupport,
		Order: order,
	}
	for _, f := range opt.AggFuncs {
		lit.Funcs = append(lit.Funcs, oracleFuncs[f])
	}
	return oracle.Mine(sch.Names(), numeric, tab.Rows(), lit)
}

// sameBits reports whether two floats are the same bits.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requireMatchesLiteral compares a miner's patterns with the literal
// oracle's, field by field and float by float to the bit.
func requireMatchesLiteral(t *testing.T, label string, cols []string, want []oracle.MinedPattern, got []*pattern.Mined) {
	t.Helper()
	engineFunc := map[oracle.Func]engine.AggFunc{}
	for ef, of := range oracleFuncs {
		engineFunc[of] = ef
	}
	byKey := map[string]oracle.MinedPattern{}
	for _, w := range want {
		agg := engine.AggSpec{Func: engineFunc[w.Agg.Func]}
		if w.Agg.Arg >= 0 {
			agg.Arg = cols[w.Agg.Arg]
		}
		byKey[pattern.Pattern{F: w.F, V: w.V, Agg: agg, Model: w.Model}.Key()] = w
	}
	if len(got) != len(byKey) {
		t.Fatalf("%s: %d patterns, the literal definitions give %d", label, len(got), len(byKey))
	}
	for _, g := range got {
		key := g.Pattern.Key()
		w, ok := byKey[key]
		if !ok {
			t.Fatalf("%s: pattern %s does not hold by the literal definitions", label, key)
		}
		if !slices.Equal(g.Pattern.F, w.F) || !slices.Equal(g.Pattern.V, w.V) ||
			g.NumFragments != w.Fragments || g.NumSupported != w.Supported ||
			!sameBits(g.Confidence, w.Confidence) ||
			!sameBits(g.MaxPosDev, w.MaxPosDev) || !sameBits(g.MaxNegDev, w.MaxNegDev) {
			t.Fatalf("%s: pattern %s: F %v V %v fragments %d supported %d conf %v dev [%v, %v]; literal F %v V %v %d %d %v [%v, %v]",
				label, key, g.Pattern.F, g.Pattern.V, g.NumFragments, g.NumSupported, g.Confidence, g.MaxNegDev, g.MaxPosDev,
				w.F, w.V, w.Fragments, w.Supported, w.Confidence, w.MaxNegDev, w.MaxPosDev)
		}
		if len(g.Locals) != len(w.Locals) {
			t.Fatalf("%s: pattern %s holds locally on %d fragments, literally on %d", label, key, len(g.Locals), len(w.Locals))
		}
		for fk, gl := range g.Locals {
			wl, ok := w.Locals[fk]
			if !ok {
				t.Fatalf("%s: pattern %s: fragment %q holds only in the miner", label, key, fk)
			}
			gp, wp := gl.Model.Params(), wl.Model.Params()
			same := gl.Frag.Key() == wl.Frag.Key() && gl.Support == wl.Support &&
				gl.Model.Type() == wl.Model.Type() && sameBits(gl.Model.GoF(), wl.Model.GoF()) &&
				sameBits(gl.MaxPosDev, wl.MaxPosDev) && sameBits(gl.MaxNegDev, wl.MaxNegDev) &&
				len(gp) == len(wp)
			for i := 0; same && i < len(gp); i++ {
				same = sameBits(gp[i], wp[i])
			}
			if !same {
				t.Fatalf("%s: pattern %s fragment %q: local model %v support %d dev [%v, %v]; literal %v %d [%v, %v]",
					label, key, fk, gl.Model, gl.Support, gl.MaxNegDev, gl.MaxPosDev,
					wl.Model, wl.Support, wl.MaxNegDev, wl.MaxPosDev)
			}
		}
	}
}

// TestMinersMatchLiteralDefinitions holds the production miners — a
// cold ARPMine, ShareGrp (fitting in its own point order) and a
// Maintainer build — to oracle.Mine, the literal reading of
// Definitions 2–4, on generated Crime and DBLP tables
// under several threshold settings, the λ = 1 and small-Δ ones putting
// candidates exactly on the global gates. Count+Sum mines roll up only
// the groupings whose Sums a superset carries (and the Maintainer none);
// count-only mines roll up every grouping below ψ in all three.
func TestMinersMatchLiteralDefinitions(t *testing.T) {
	tables := []struct {
		name  string
		tab   *engine.Table
		attrs []string
	}{
		{"crime", dataset.GenerateCrime(dataset.CrimeConfig{Rows: 300, Seed: 7, NumAttrs: 5}), nil},
		{"dblp", dataset.GenerateDBLP(dataset.DBLPConfig{Rows: 300, Seed: 7}), []string{"author", "venue", "year"}},
	}
	thresholds := []pattern.Thresholds{
		{Theta: 0.1, LocalSupport: 2, Lambda: 0.3, GlobalSupport: 1},
		pattern.DefaultThresholds(),
		{Theta: 0.2, LocalSupport: 2, Lambda: 1, GlobalSupport: 2},
		{Theta: 0, LocalSupport: 3, Lambda: 0.5, GlobalSupport: 3},
	}
	funcs := [][]engine.AggFunc{{engine.Count, engine.Sum}, {engine.Count}}
	for _, tc := range tables {
		for ti, th := range thresholds {
			for _, fs := range funcs {
				opt := Options{
					MaxPatternSize: 3, Thresholds: th, Attributes: tc.attrs, AggFuncs: fs,
					Models: []regress.ModelType{regress.Const, regress.Lin},
				}
				want := literalMine(t, tc.tab, opt, fitOrder)
				label := fmt.Sprintf("%s %+v %v", tc.name, th, fs)
				res, err := ARPMine(tc.tab, opt)
				if err != nil {
					t.Fatal(err)
				}
				requireMatchesLiteral(t, label+" ARPMine", tc.tab.Schema().Names(), want, res.Patterns)
				if ti == 0 { // its own point order costs a second literal mine
					res, err = ShareGrp(tc.tab, opt)
					if err != nil {
						t.Fatal(err)
					}
					requireMatchesLiteral(t, label+" ShareGrp", tc.tab.Schema().Names(),
						literalMine(t, tc.tab, opt, shareGrpOrder), res.Patterns)
				}
				m, err := NewMaintainer(tc.tab, opt)
				if err != nil {
					t.Fatal(err)
				}
				requireMatchesLiteral(t, label+" Maintainer", tc.tab.Schema().Names(), want, m.Patterns())
			}
		}
	}
}
