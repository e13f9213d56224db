package engine

import (
	"slices"

	"cape/internal/value"
)

// Roll-up: γ_{G, aggs}(R) computed from an already-grouped
// γ_{G', aggs'}(R), G ⊂ G' and aggs ⊆ aggs', without reading R again.
// Every parent row — one group of G' — is folded into the coarser group
// of G its key projects to, with its aggregate state as the weight. The
// group assignment is the parts kernel itself, run over the parent's key
// columns as one solo dense part.
//
// The result is the scan's byte for byte. The parent lists its groups in
// first-appearance order, so the first parent row that reaches a coarse
// group is the group whose first row is the coarse group's first row in
// R: the coarse group order, each key value's representative (its
// Int/Float kind, its −0 or NaN bits) and each key column's dictionary
// order all come out as a scan of R would emit them. The aggregates
// agree because only bit-exact merges are admitted (rollUpMergeable).

// rollUpMergeable reports whether folding parent states reproduces the
// scan's states of aCols bit for bit, given sumNeedsF (see sumNeedsFFor):
// Count always, and Sum when its float mirror is never needed — the
// result is then the associative integer sumI. A Sum whose sumF must be
// filled depends on float summation order, as Avg does. Min and Max do
// not merge across a parent's groups, whose order is not the order of
// the rows that win a tie. Declining aggregates leave the caller to scan.
func rollUpMergeable(aCols []aggCol, sumNeedsF []bool) bool {
	for _, ac := range aCols {
		if f := ac.spec.Func; f != Count && f != Sum {
			return false
		}
	}
	for _, needF := range sumNeedsF {
		if needF {
			return false
		}
	}
	return true
}

// rollUp groups the rows of parent, an already-grouped result, by its
// key columns kIdx and folds into each coarse group the state
// parentState(r, ai) of every parent row r, for every aggregate ai of
// aCols. It returns the one part the coarse groups' first parent rows
// refer to, those rows, and the coarse groups' states, for
// materializeGroups.
func rollUp(parent *Table, kIdx []int, aCols []aggCol,
	parentState func(r, ai int) aggState) ([]*compPart, []partRef, *groupStates) {

	parts := parent.parts(kIdx, nil)
	sc := groupParts(parts, len(kIdx), nil, nil)
	gs := newGroupStates(aCols)
	gs.grow(len(sc.ga.firsts))
	for r, g := range sc.gids[:parent.n] {
		if gs.countOnly {
			gs.counts[g] += parentState(r, 0).count
			continue
		}
		for ai, ac := range aCols {
			w := parentState(r, ai)
			mergeAggState(&gs.aggs[ai][g], &w, ac.spec.Func)
		}
	}
	return parts, sc.ga.firsts, gs
}

// mergeAggState folds a parent group's state into its coarse group's.
// Only called for aggregates rollUpMergeable admits, so sumF and
// anyFloat are never populated.
func mergeAggState(dst, src *aggState, f AggFunc) {
	dst.count += src.count
	if f == Sum {
		dst.sumI += src.sumI
	}
}

// RollUp groups t — GroupBy's result over some relation R — by
// groupCols, a subset of its key columns, and returns what
// R.GroupBy(groupCols, aggs) returns, byte for byte, without reading R.
// Each aggregate must be one of t's own columns (named by
// AggSpec.String()). ok is false, and the caller must scan R, when one
// is missing or its states do not merge bit-exactly: only counts and
// integer sums roll up (see rollUpMergeable; a Sum column holding a
// Float means R's column does).
func (t *Table) RollUp(groupCols []string, aggs []AggSpec) (out *Table, ok bool) {
	kIdx, err := t.schema.Indices(groupCols)
	if err != nil {
		return nil, false
	}
	aCols := make([]aggCol, len(aggs))
	pIdx := make([]int, len(aggs))
	for ai, a := range aggs {
		ci := t.schema.Index(a.String())
		if ci < 0 || !cellsAreStates(t.cols[ci], a.Func) {
			return nil, false
		}
		// idx only tells count(*) from count(arg) here (newGroupStates).
		aCols[ai] = aggCol{spec: a, idx: -1}
		if !a.IsStar() {
			aCols[ai].idx = ci
		}
		pIdx[ai] = ci
	}
	// No Sum needs its float mirror: cellsAreStates admits no Float cell.
	if !rollUpMergeable(aCols, nil) {
		return nil, false
	}
	sch := groupSchema(t.schema, kIdx, aggs)
	parts, firsts, gs := rollUp(t, kIdx, aCols, func(r, ai int) aggState {
		c := t.cols[pIdx[ai]]
		if c.Kinds[r] != value.Int {
			return aggState{} // a NULL sum: no non-NULL argument
		}
		if aCols[ai].spec.Func == Sum {
			return aggState{count: 1, sumI: c.I64[r]}
		}
		return aggState{count: c.I64[r]}
	})
	return materializeGroups(parts, firsts, gs, len(kIdx), aCols, sch), true
}

// cellsAreStates reports whether the result column c of an aggregate f
// holds what a state of f that rolls up reads as: a count per group for
// Count, an integer sum or NULL for Sum. A Float sum means R's column
// holds a Float, whose sum depends on summation order.
func cellsAreStates(c *Col, f AggFunc) bool {
	for _, k := range c.Kinds {
		if k != value.Int && (f != Sum || k != value.Null) {
			return false
		}
	}
	return true
}

// RollUp is Table.RollUp for a retained group-by: it returns what
// R.GroupByAccums(groupCols, aggs) returns over the rows g has folded,
// ready to fold the rows appended since. Each aggregate must be one of
// g's own. A retained Sum keeps its float mirror (see sumNeedsFFor),
// which does not merge bit-exactly, so only counts roll up; ok is false
// otherwise, and the caller must scan R.
func (g *RetainedGroupBy) RollUp(groupCols []string, aggs []AggSpec) (out *RetainedGroupBy, ok bool) {
	nK := len(g.gIdx)
	kIdx, err := g.sch[:nK].Indices(groupCols)
	if err != nil {
		return nil, false
	}
	aCols := make([]aggCol, len(aggs))
	pIdx := make([]int, len(aggs))
	sumNeedsF := make([]bool, len(aggs))
	for ai, a := range aggs {
		pi := g.sch[nK:].Index(a.String())
		if pi < 0 {
			return nil, false
		}
		aCols[ai], pIdx[ai], sumNeedsF[ai] = g.aCols[pi], pi, a.Func == Sum
	}
	if !rollUpMergeable(aCols, sumNeedsF) {
		return nil, false
	}
	gIdx := make([]int, len(kIdx))
	for i, k := range kIdx {
		gIdx[i] = g.gIdx[k]
	}
	sch := groupSchema(g.sch, kIdx, aggs)
	parts, firsts, states := rollUp(g.keys, kIdx, aCols, func(r, ai int) aggState {
		return g.states.state(r, pIdx[ai])
	})
	return &RetainedGroupBy{
		groupCols: slices.Clone(groupCols),
		aggs:      slices.Clone(aggs),
		gIdx:      gIdx,
		aCols:     aCols,
		sch:       sch,
		keys:      materializeGroups(parts, firsts, nil, len(kIdx), nil, sch[:len(kIdx)]),
		states:    states,
		synced:    g.synced,
		epoch:     g.epoch,
	}, true
}
