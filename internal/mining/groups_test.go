package mining

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"cape/internal/dataset"
	"cape/internal/engine"
	"cape/internal/pattern"
	"cape/internal/value"
)

// scanCounter records the calls that read the relation it wraps: every
// query operator and every row scan.
type scanCounter struct {
	engine.MutableRelation
	mu    sync.Mutex
	scans []scanCall
}

// scanCall is one recorded read: the operator and its columns.
type scanCall struct {
	op   string
	cols []string
}

func (c *scanCounter) count(op string, cols []string) {
	c.mu.Lock()
	c.scans = append(c.scans, scanCall{op, slices.Clone(cols)})
	c.mu.Unlock()
}

func (c *scanCounter) GroupBy(cols []string, aggs []engine.AggSpec) (*engine.Table, error) {
	c.count("GroupBy", cols)
	return c.MutableRelation.GroupBy(cols, aggs)
}

func (c *scanCounter) GroupByAccums(cols []string, aggs []engine.AggSpec) (*engine.RetainedGroupBy, error) {
	c.count("GroupByAccums", cols)
	return c.MutableRelation.GroupByAccums(cols, aggs)
}

func (c *scanCounter) CountDistinct(cols []string) (int, error) {
	c.count("CountDistinct", cols)
	return c.MutableRelation.CountDistinct(cols)
}

func (c *scanCounter) ScanRows(lo, hi int, fn func(row value.Tuple) error) error {
	c.count("ScanRows", nil)
	return c.MutableRelation.ScanRows(lo, hi, fn)
}

// crimeForGroups is a Crime table over the six attributes the
// repository benchmark mines: type and block are strings, the other
// four integers.
func crimeForGroups() *engine.Table {
	return dataset.GenerateCrime(dataset.CrimeConfig{Rows: 4000, Seed: 3, NumAttrs: 6, NumCommunities: 10})
}

// TestGroupPhaseScansOnlyTopLevel pins the group-by phase's work: a
// count-only ψ=3 mine over six attributes reads the relation exactly
// C(6,3) = 20 times — once per size-3 grouping — in ARPMine, ShareGrp
// and the Maintainer's build, where a query per grouping would read it
// 35 times; the 15 size-2 groupings roll up. Each run's patterns are the
// same run's over the bare table.
func TestGroupPhaseScansOnlyTopLevel(t *testing.T) {
	tab := crimeForGroups()
	opt := Options{
		MaxPatternSize: 3,
		Thresholds:     pattern.Thresholds{Theta: 0.25, LocalSupport: 4, Lambda: 0.25, GlobalSupport: 3},
		AggFuncs:       []engine.AggFunc{engine.Count},
		Parallelism:    2,
	}
	miners := []struct {
		name string
		mine func(engine.Relation) ([]byte, error)
	}{
		{"ARPMine", func(r engine.Relation) ([]byte, error) {
			res, err := ARPMine(r, opt)
			if err != nil {
				return nil, err
			}
			return patternsJSON(t, res.Patterns), nil
		}},
		{"ShareGrp", func(r engine.Relation) ([]byte, error) {
			res, err := ShareGrp(r, opt)
			if err != nil {
				return nil, err
			}
			return patternsJSON(t, res.Patterns), nil
		}},
		{"NewMaintainer", func(r engine.Relation) ([]byte, error) {
			m, err := NewMaintainer(r.(engine.MutableRelation), opt)
			if err != nil {
				return nil, err
			}
			return patternsJSON(t, m.Patterns()), nil
		}},
	}
	for _, mn := range miners {
		rel := &scanCounter{MutableRelation: tab}
		got, err := mn.mine(rel)
		if err != nil {
			t.Fatal(err)
		}
		if len(rel.scans) != 20 {
			t.Errorf("%s read the relation %d times, want 20: %v", mn.name, len(rel.scans), rel.scans)
		}
		for _, s := range rel.scans {
			if len(s.cols) != 3 {
				t.Errorf("%s read the relation with %s%v, not a size-3 grouping", mn.name, s.op, s.cols)
			}
		}
		want, err := mn.mine(tab)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: patterns differ through the counting wrapper", mn.name)
		}
		if string(want) == "null" {
			t.Fatalf("%s mined no patterns; the check is vacuous", mn.name)
		}
	}
}

// TestGroupPhaseSumParents: in a Count+Sum mine over Crime, a grouping
// G needs sum(A) for every numeric A outside G, so it rolls up only from
// a superset that adds a string attribute (type or block) — the one
// superset kind that carries every Sum — and every other G scans. The
// rolled-up tables hold GroupBy's cells, kinds included. A retained Sum
// never rolls up, so the Maintainer's build scans every grouping.
func TestGroupPhaseSumParents(t *testing.T) {
	tab := crimeForGroups()
	opt, err := Options{MaxPatternSize: 3}.withDefaults(tab)
	if err != nil {
		t.Fatal(err)
	}
	rel := &scanCounter{MutableRelation: tab}
	levels, err := groupAll(rel, opt, engine.NewPool(2), false)
	if err != nil {
		t.Fatal(err)
	}
	numeric := func(a string) bool { return tab.Schema()[tab.Schema().Index(a)].Kind == value.Int }
	rolled := 0
	for _, gr := range levels[0] {
		servable := false
		for _, a := range opt.Attributes {
			if !slices.Contains(gr.attrs, a) && !numeric(a) {
				servable = true
			}
		}
		if gr.parent == nil {
			if servable {
				t.Errorf("%v scanned, though a superset adding a string attribute carries its Sums", gr.attrs)
			}
			continue
		}
		rolled++
		extra := slices.DeleteFunc(slices.Clone(gr.parent.attrs), func(a string) bool { return slices.Contains(gr.attrs, a) })
		if len(extra) != 1 || numeric(extra[0]) || !carries(gr.parent.aggs, gr.aggs) {
			t.Errorf("%v rolled up from %v, which does not carry %v", gr.attrs, gr.parent.attrs, gr.aggs)
		}
		for _, up := range levels[1] {
			if up != gr.parent && isSupersetOf(up.attrs, gr.attrs) && carries(up.aggs, gr.aggs) && up.rows() < gr.parent.rows() {
				t.Errorf("%v rolled up from %v (%d groups), not the smaller %v (%d)",
					gr.attrs, gr.parent.attrs, gr.parent.rows(), up.attrs, up.rows())
			}
		}
		want, err := tab.GroupBy(gr.attrs, gr.aggs)
		if err != nil {
			t.Fatal(err)
		}
		requireCellsIdentical(t, fmt.Sprint(gr.attrs), gr.table, want)
	}
	// Of the 15 pairs only {type, block} has no string attribute to add.
	if rolled != 14 || len(rel.scans) != 21 {
		t.Errorf("%d of 15 size-2 groupings rolled up over %d relation reads; want 14 over 21", rolled, len(rel.scans))
	}

	rel = &scanCounter{MutableRelation: tab}
	if _, err := NewMaintainer(rel, opt); err != nil {
		t.Fatal(err)
	}
	if len(rel.scans) != 35 {
		t.Errorf("a Count+Sum Maintainer build read the relation %d times, want all 35 groupings", len(rel.scans))
	}
}

// isSupersetOf reports whether set holds every attribute of sub.
func isSupersetOf(set, sub []string) bool {
	for _, a := range sub {
		if !slices.Contains(set, a) {
			return false
		}
	}
	return true
}

// requireCellsIdentical compares two tables cell by cell: kind and
// payload, float bits included.
func requireCellsIdentical(t *testing.T, label string, got, want *engine.Table) {
	t.Helper()
	if got.NumRows() != want.NumRows() || !slices.Equal(got.Schema().Names(), want.Schema().Names()) {
		t.Fatalf("%s: %d rows %v, want %d rows %v", label, got.NumRows(), got.Schema().Names(), want.NumRows(), want.Schema().Names())
	}
	for r := 0; r < want.NumRows(); r++ {
		for ci := range want.Schema() {
			g, w := got.Col(ci).Value(r), want.Col(ci).Value(r)
			same := g.Kind() == w.Kind() && value.Equal(g, w)
			if same && g.Kind() == value.Float {
				same = math.Float64bits(g.Float()) == math.Float64bits(w.Float())
			}
			if !same || got.Col(ci).Codes[r] != want.Col(ci).Codes[r] {
				t.Fatalf("%s: row %d col %d: %s, want %s", label, r, ci, g, w)
			}
		}
	}
}
