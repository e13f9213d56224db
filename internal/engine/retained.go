package engine

import (
	"maps"
	"slices"

	"cape/internal/value"
)

// RetainedGroupBy is γ_{groupCols, aggs}(R) kept current as R grows: the
// grouped key columns, each group's aggregate state, a lookup from a
// group's canonical key bytes to the group, and the number of R's rows
// folded so far. A MutableRelation's GroupByAccums builds one with the
// GroupBy kernels; CatchUp — or Fold, for callers that stream the rows
// themselves — then folds only the rows appended since.
//
// Every state equals a row-order fold of its group's rows, bit for bit:
// the build fills every Sum's float mirror (see sumNeedsFFor) and never
// reassociates a float sum, and appended rows land at the relation's
// tail, so folding them on continues each group's fold exactly; new
// groups enter in first-appearance order. Table therefore publishes the
// table GroupBy returns over the same rows — the same values, bits and
// result kinds, the same group order and dictionary codes.
//
// A published table is a snapshot: no later fold changes it. The key
// columns it shares are forked before the next new group lands (see
// Col.fork), and the aggregate columns are rebuilt at each publication,
// so readers may keep reading a table while the state catches up. A
// RetainedGroupBy is not safe for concurrent use.
type RetainedGroupBy struct {
	groupCols []string
	aggs      []AggSpec
	gIdx      []int    // relation column per group column
	aCols     []aggCol // aggregate arguments
	sch       Schema   // GroupBy's output schema

	keys   *Table // the grouped key columns, as GroupBy emits them
	states *groupStates
	// lookup maps a group's canonical key bytes to the group. It is built
	// on the first Fold or Find: a state that is never folded or probed
	// never pays for it.
	lookup map[string]int32
	synced int    // relation rows folded
	epoch  uint64 // relation epoch at the build or the last CatchUp

	snap   *Table // the published table; nil once a fold changed the state
	shared bool   // snap shares keys' columns: fork them before a new group
	keyBuf []byte
	row    value.Tuple
}

// kernelRelation is a relation the parts kernels read directly: a Table
// or a SegTable.
type kernelRelation interface {
	Relation
	parts(gIdx []int, aCols []aggCol) []*compPart
}

// retainGroupBy is GroupByAccums over either kernel relation.
func retainGroupBy(r kernelRelation, groupCols []string, aggs []AggSpec) (*RetainedGroupBy, error) {
	gIdx, aCols, sch, err := groupPlan(r.Schema(), groupCols, aggs)
	if err != nil {
		return nil, err
	}
	nK := len(gIdx)
	ps := r.parts(gIdx, aCols)
	sc := groupParts(ps, nK, aCols, sumNeedsFFor(ps, aCols, true))
	return &RetainedGroupBy{
		groupCols: slices.Clone(groupCols),
		aggs:      slices.Clone(aggs),
		gIdx:      gIdx,
		aCols:     aCols,
		sch:       sch,
		keys:      materializeGroups(ps, sc.ga.firsts, nil, nK, nil, sch[:nK]),
		states:    sc.gs,
		synced:    r.NumRows(),
		epoch:     r.Epoch(),
	}, nil
}

// GroupByAccums is GroupBy for callers that keep aggregating its groups
// as rows arrive: the returned state has folded every current row of the
// table; see RetainedGroupBy.
func (t *Table) GroupByAccums(groupCols []string, aggs []AggSpec) (*RetainedGroupBy, error) {
	return retainGroupBy(t, groupCols, aggs)
}

// GroupByAccums is Table.GroupByAccums over every segment and the tail.
func (st *SegTable) GroupByAccums(groupCols []string, aggs []AggSpec) (*RetainedGroupBy, error) {
	return retainGroupBy(st, groupCols, aggs)
}

// Keys returns the grouped key columns, group i in row i. The table is
// the state's own: a Fold that creates a group appends to it, unless
// Table has published it since.
func (g *RetainedGroupBy) Keys() *Table { return g.keys }

// Result returns aggregate ai of group gi over every row folded so far:
// GroupBy's cell.
func (g *RetainedGroupBy) Result(gi, ai int) value.V {
	st := g.states.state(gi, ai)
	return st.result(g.aCols[ai].spec.Func)
}

// Fold folds the relation's first row not yet folded, as a full-width
// tuple, into its group, creating the group when the row's key is new,
// and reports the group and whether it was created. The values are
// copied, so row may be a reused buffer.
func (g *RetainedGroupBy) Fold(row value.Tuple) (gi int32, fresh bool) {
	if g.lookup == nil {
		g.buildLookup()
	}
	g.keyBuf = g.keyBuf[:0]
	for _, ci := range g.gIdx {
		g.keyBuf = row[ci].AppendKey(g.keyBuf)
	}
	gi, ok := g.lookup[string(g.keyBuf)]
	if !ok {
		if g.shared {
			g.keys, g.shared = g.keys.fork(), false
		}
		gi = int32(g.keys.n)
		g.row = g.row[:0]
		for _, ci := range g.gIdx {
			g.row = append(g.row, row[ci])
		}
		g.keys.push(g.row)
		g.states.grow(g.keys.n)
		g.lookup[string(g.keyBuf)] = gi
	}
	if g.states.countOnly {
		g.states.counts[gi]++
	} else {
		for ai, ac := range g.aCols {
			var arg value.V
			if ac.idx >= 0 {
				arg = row[ac.idx]
			}
			g.states.aggs[ai][gi].add(arg, ac.spec.Func, ac.idx < 0)
		}
	}
	g.synced++
	g.snap = nil
	return gi, !ok
}

// Find returns the group whose key equals key — one value per group
// column, in groupCols order — as GroupBy groups rows: Int and Float by
// numeric value, −0 = +0, NaN = NaN. It probes the canonical-key lookup
// Fold uses; ok is false when no group has the key.
func (g *RetainedGroupBy) Find(key value.Tuple) (gi int, ok bool) {
	if g.lookup == nil {
		g.buildLookup()
	}
	g.keyBuf = g.keyBuf[:0]
	for _, v := range key {
		g.keyBuf = v.AppendKey(g.keyBuf)
	}
	i, ok := g.lookup[string(g.keyBuf)]
	return int(i), ok
}

// buildLookup keys every existing group by its canonical key bytes.
func (g *RetainedGroupBy) buildLookup() {
	g.lookup = make(map[string]int32, g.keys.n)
	for gi := 0; gi < g.keys.n; gi++ {
		g.keyBuf = g.keyBuf[:0]
		for _, c := range g.keys.cols {
			g.keyBuf = c.Value(gi).AppendKey(g.keyBuf)
		}
		g.lookup[string(g.keyBuf)] = int32(gi)
	}
}

// CatchUp brings the state up to r, the relation it was built from: it
// folds the rows appended since the last sync, read through r.ScanRows.
// When r changed other than by appending — it shrank, or it rewrote
// rows already folded (RewriteEpoch) — a fold would keep the old fold
// order, so the state is rebuilt with r.GroupByAccums instead.
func (g *RetainedGroupBy) CatchUp(r MutableRelation) error {
	n := r.NumRows()
	if n < g.synced || r.RewriteEpoch() > g.epoch {
		fresh, err := r.GroupByAccums(g.groupCols, g.aggs)
		if err != nil {
			return err
		}
		*g = *fresh
		return nil
	}
	if n > g.synced {
		err := r.ScanRows(g.synced, n, func(row value.Tuple) error {
			g.Fold(row)
			return nil
		})
		if err != nil {
			return err
		}
	}
	g.epoch = r.Epoch()
	return nil
}

// Table publishes the grouped table: GroupBy's result over the rows
// folded so far. It is never mutated afterwards; calls between folds
// return the same table.
func (g *RetainedGroupBy) Table() *Table {
	if g.snap == nil {
		nK := len(g.gIdx)
		out := &Table{schema: g.sch.Clone(), cols: make([]*Col, len(g.sch)), n: g.keys.n}
		copy(out.cols, g.keys.cols)
		for ai := range g.aCols {
			out.cols[nK+ai] = &Col{}
		}
		fillAggCols(out, g.states, nK, g.aCols)
		g.snap, g.shared = out, true
	}
	return g.snap
}

// fork returns a table with t's rows whose columns can be appended to
// while readers keep reading t.
func (t *Table) fork() *Table {
	out := &Table{schema: t.schema, cols: make([]*Col, len(t.cols)), n: t.n}
	for ci, c := range t.cols {
		out.cols[ci] = c.fork()
	}
	return out
}

// fork returns a column holding c's values that can be appended to
// while readers keep reading c. The value buffers and the dictionary
// are shared: an append writes only past their lengths, which c never
// reads. The null bitmap, whose last word an append may set a bit in,
// and the dictionary lookup, which an append may insert into, are
// copied. Ranks are rebuilt on demand.
func (c *Col) fork() *Col {
	return &Col{
		Kinds:     c.Kinds,
		Num:       c.Num,
		F64:       c.F64,
		I64:       c.I64,
		Codes:     c.Codes,
		Dict:      c.Dict,
		lookup:    maps.Clone(c.lookup),
		nulls:     slices.Clone(c.nulls),
		nullCount: c.nullCount,
		hasFloat:  c.hasFloat,
	}
}
