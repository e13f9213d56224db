package mining

import (
	"testing"

	"cape/internal/engine"
	"cape/internal/oracle"
	"cape/internal/pattern"
	"cape/internal/value"
)

// oracleRel is an engine.Relation whose five operators internal/oracle
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

func (o *oracleRel) SelectEq(cols []string, vals value.Tuple) (*engine.Table, error) {
	idx, _, _, err := o.plan(cols, nil)
	if err != nil {
		return nil, err
	}
	return tableOf(o.schema, nil, oracle.SelectEq(o.rows, idx, vals))
}

func (o *oracleRel) CountDistinct(cols []string) (int, error) {
	idx, _, _, err := o.plan(cols, nil)
	if err != nil {
		return 0, err
	}
	return oracle.CountDistinct(o.rows, idx), nil
}

func (o *oracleRel) DistinctProject(cols []string) (*engine.Table, error) {
	idx, _, sch, err := o.plan(cols, nil)
	if err != nil {
		return nil, err
	}
	return tableOf(sch, nil, oracle.DistinctProject(o.rows, idx))
}

func (o *oracleRel) Cube(cols []string, minSize, maxSize int, aggs []engine.AggSpec) (*engine.Table, error) {
	idx, oaggs, _, err := o.plan(cols, aggs)
	if err != nil {
		return nil, err
	}
	var sch engine.Schema
	for _, c := range cols {
		sch = append(sch, engine.Column{Name: c, Kind: value.Null})
	}
	sch = append(sch, engine.Column{Name: engine.GroupingColumn, Kind: value.Int})
	return tableOf(sch, aggs, oracle.Cube(o.rows, idx, minSize, maxSize, oaggs))
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
