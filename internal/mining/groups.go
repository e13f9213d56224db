package mining

import (
	"slices"
	"time"

	"cape/internal/engine"
	"cape/internal/fd"
)

// grouping is one attribute set's aggregation γ_{G, aggs}(R), as the
// group-by phase leaves it: GroupBy's table, or, for the Maintainer, the
// retained group-by it keeps folding appends into.
type grouping struct {
	attrs []string
	aggs  []engine.AggSpec
	table *engine.Table
	grp   *engine.RetainedGroupBy
	// query is the time the grouping took, scan or roll-up.
	query time.Duration
	// parent is the grouping one level up this one rolled up from; nil
	// when it scanned R.
	parent *grouping
}

// rows is the grouping's group count.
func (g *grouping) rows() int {
	if g.grp != nil {
		return g.grp.Keys().NumRows()
	}
	return g.table.NumRows()
}

// groupAll is the one group-by phase ARPMine, ShareGrp and the
// Maintainer share: it computes γ_{G, aggSpecsFor(G)}(r) for every
// attribute set G with 2 ≤ |G| ≤ ψ, and returns them by level — entry k
// holds the groupings of size k+2 in enumeration order. With retain set
// (r is then a MutableRelation) each is a RetainedGroupBy, else
// GroupBy's table.
//
// Only the largest groupings scan r. Each smaller G, level by level
// downward, rolls up from its smallest superset G ∪ {a} one level up —
// fewest groups, ties to enumeration order — among those that carry
// every aggregate G needs: every count over G is the sum of counts over
// G ∪ {a}, as in the paper's CUBE BY variant (Section 4.1), so G costs a
// pass over that superset's groups instead of over R. The engine
// declines a roll-up whose states would not merge bit-exactly (a Sum
// over a column holding a Float; any retained Sum), and G then scans
// too. Either way G's result is the scan's, byte for byte; see
// engine.Table.RollUp. Within a level the groupings fan across pool.
func groupAll(r engine.Relation, opt Options, pool *engine.Pool, retain bool) ([][]*grouping, error) {
	top := min(opt.MaxPatternSize, len(opt.Attributes))
	if top < 2 {
		return nil, nil
	}
	levels := make([][]*grouping, top-1)
	for size := top; size >= 2; size-- {
		gs := combinations(opt.Attributes, size)
		level := make([]*grouping, len(gs))
		for i, g := range gs {
			level[i] = &grouping{attrs: g, aggs: aggSpecsFor(r, opt.AggFuncs, g)}
		}
		if size < top {
			pickParents(level, levels[size-1], opt.Attributes)
		}
		err := pool.ForEach("mine:group", len(level), func(i int) error {
			gr := level[i]
			t0 := time.Now()
			defer func() { gr.query = time.Since(t0) }()
			if gr.parent != nil && gr.rollUp() {
				return nil
			}
			gr.parent = nil
			return gr.scan(r, retain)
		})
		if err != nil {
			return nil, err
		}
		levels[size-2] = level
	}
	return levels, nil
}

// pickParents assigns every grouping of level its roll-up source in up,
// the level above: among the supersets G ∪ {a} that carry every
// aggregate G needs, the one with the fewest groups, ties to the
// earliest in enumeration order. A grouping no superset serves keeps a
// nil parent.
func pickParents(level, up []*grouping, attrs []string) {
	byKey := make(map[string]int, len(up))
	for i, p := range up {
		byKey[fd.Key(p.attrs)] = i
	}
	for _, gr := range level {
		best := -1
		for _, a := range attrs {
			if slices.Contains(gr.attrs, a) {
				continue
			}
			i, ok := byKey[fd.Key(append(slices.Clone(gr.attrs), a))]
			if !ok || !carries(up[i].aggs, gr.aggs) {
				continue
			}
			p := up[i]
			if best < 0 || p.rows() < up[best].rows() || p.rows() == up[best].rows() && i < best {
				best = i
			}
		}
		if best >= 0 {
			gr.parent = up[best]
		}
	}
}

// carries reports whether have lists every aggregate of want.
func carries(have, want []engine.AggSpec) bool {
	for _, a := range want {
		if !slices.Contains(have, a) {
			return false
		}
	}
	return true
}

// rollUp computes the grouping from its parent's result, reporting false
// when the engine declines.
func (g *grouping) rollUp() (ok bool) {
	if p := g.parent; p.grp != nil {
		g.grp, ok = p.grp.RollUp(g.attrs, g.aggs)
	} else {
		g.table, ok = p.table.RollUp(g.attrs, g.aggs)
	}
	return ok
}

// scan computes the grouping from r.
func (g *grouping) scan(r engine.Relation, retain bool) (err error) {
	if retain {
		g.grp, err = r.(engine.MutableRelation).GroupByAccums(g.attrs, g.aggs)
	} else {
		g.table, err = r.GroupBy(g.attrs, g.aggs)
	}
	return err
}
