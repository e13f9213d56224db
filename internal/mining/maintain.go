package mining

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"cape/internal/engine"
	"cape/internal/pattern"
	"cape/internal/regress"
	"cape/internal/value"
)

// Maintainer keeps a mined pattern set fresh under appends. It is built
// from ARPMine's own stages and keeps their outputs: per grouping
// attribute set, an engine.RetainedGroupBy (the grouped key table and
// each group's aggregate state, from ARPMine's group-by phase groupAll,
// where count-only groupings below ψ roll up from a superset's retained
// state), a decoded observation column per aggregate, and, for every
// (F, V) split the shared enumeration yields, each fragment's
// groups in observation order — a slice of the sorted permutation the
// split was fitted over, through the same pattern.FragFit. Every
// fragment of a grouping set whose every aggregate is count(*) also
// keeps its count statistics (n, Σy, Σy², min, max) — a stat-kept
// fragment — when no Lin candidate can hold on it, or when its
// predictor values are integers within ±2¹³ (maxMomentX): then it keeps
// its Lin moments (Σx_j, Σx_j·x_k, Σx_j·y) too. An appended batch then
// costs
//
//	O(batch × groupings)                 fold rows, refresh touched groups' y
//	+ O(touched groups × splits)         route them, update kept statistics and moments
//	+ O(dirtied kept fragments)          re-fit from them: a Const fit, a 3×3 solve and a screen
//	+ O(Σ |fragment| over dirtied walks) re-fit the others: stream the flat columns
//
// instead of the full group-sort-fit pipeline over the whole table. A
// stat-kept fragment re-fits from its statistics without visiting its
// groups, unless the group that alone held its minimum grew: one pass
// over its y values then finds the new extremes. One that keeps
// moments does so only when they rule Lin out — its normal equations
// are singular, or R² from the moments plus an error bound is below θ
// (regress.LinMoments.BelowTheta). The walked fragments are those on
// which a Lin model holds or comes within that bound of θ, those whose
// predictors break the moment guard, those of grouping sets with a
// Sum, Avg, Min or Max, whose float sums are order-sensitive (below),
// and every fragment once |R| reaches 2²⁶.
//
// The maintained set is pinned byte-identical to a cold ARPMine run
// (without FD pruning) over the same rows:
//
//   - The retained group-by equals a row-order fold of each group's
//     rows, bit for bit (RetainedGroupBy's contract), and appended rows
//     land at the table tail, so folding them on reproduces GroupBy's
//     per-group fold order; new groups enter in first-appearance order —
//     exactly where a re-run's grouped table would place them.
//   - Each fragment keeps its groups in the miner's observation order:
//     sorted by the predictor sequence of the sort order that first
//     tested the split. An appended group is inserted where
//     value.Compare over that sequence puts it (the grouped rows are
//     distinct, so no two groups of a fragment tie). Re-fitting runs
//     the same FragFit over the same order, so float arithmetic agrees
//     exactly.
//
// Float sums are order-sensitive, which is why a walked fragment is
// re-fit from its (retained, ordered) group aggregates rather than
// stat-merged. Counts are the exception: every count is an integer of
// at most |R|, so while |R| < 2²⁶ (countStatsExact) every partial Σy
// and Σy², in any order, is an integer below 2⁵² that float64 holds
// exactly, and updating a kept fragment's sums by each touched group's
// new − old reproduces the cold fold's bits. Under the moment guard the
// same holds for every entry of XᵀX and Xᵀy, so β from kept moments is
// the walk's β bit for bit; R² is not exact, which is why the moments
// only rule a hold out and a possible hold walks. See DESIGN.md §11.
//
// Grouping keys carry no precondition: value.Compare equality is
// canonical-key equality for every value, NaN, ±0.0 and integers past
// 2⁵³ included, so routing by Compare and grouping by key agree.
//
// With Options.Parallelism > 1 the per-grouping-set work — the build,
// folding appended rows into the retained accumulators, routing touched
// groups, re-fitting dirty fragments — fans across a shared pool.
// Grouping sets are fully independent retained states, and each one
// still folds the appended rows in row order, so the maintained set is
// identical to the sequential maintainer's at any width.
//
// A Maintainer is not safe for concurrent use, except that Grouping
// may be called concurrently with itself.
type Maintainer struct {
	tab    engine.MutableRelation
	opt    Options
	synced int    // rows folded so far
	epoch  uint64 // table epoch at last CatchUp
	built  uint64 // table epoch at the build
	gsets  []*gSet
	// byAttrs indexes gsets by attrKey of their attributes.
	byAttrs map[string]*gSet
	cands   []*mCand // every candidate, sorted by key
}

// gSet is the retained state of one grouping attribute set. Group gi
// (first-appearance order == grouped-row index) is group gi of grp —
// row gi of its key columns — and entry gi of every observation column.
type gSet struct {
	attrs []string
	aggs  []engine.AggSpec

	grp *engine.RetainedGroupBy
	// pub serializes Grouping's publications of grp's table.
	pub     sync.Mutex
	state   []uint8       // gTouched | gFresh
	y       []pattern.Obs // per aggregate: Result() as of the last CatchUp
	splits  []*mSplit
	touched []int32   // groups touched by the current batch
	oldY    []float64 // per touched group: its count before the batch, when counts are kept

	// Scratch reused across fragment re-fits. Per grouping set (not per
	// maintainer) so CatchUp can fan grouping sets across a pool.
	fit    *pattern.FragFit
	lin    regress.LinMoments
	keyBuf []byte
	work   refitWork
}

// refitWork counts what re-fits did since the build, the build
// included.
type refitWork struct {
	walked      int // fragment memberships visited, by a walked fit or an extremes pass
	fromStats   int // Lin-free fragments re-fit from kept count statistics
	fromMoments int // fragments re-fit from kept count statistics, their Lin moments ruling Lin out
	extremes    int // extremes passes over a kept fragment whose minimum grew
}

// maxStatRows bounds the relation size under which count statistics are
// kept: a count is at most |R|, so Σy ≤ |R| and Σy² ≤ |R|² < 2⁵², and
// every partial sum is an integer float64 holds exactly.
const maxStatRows = 1 << 26

// maxMomentX bounds the predictor values under which a fragment keeps
// Lin moments: with every x an integer of magnitude at most 2¹³ and
// every count below maxStatRows, Σx < 2³⁹, Σx_j·x_k < 2⁵² and
// |Σx_j·y| ≤ 2¹³·Σy < 2³⁹, so every partial sum is an integer float64
// holds exactly.
const maxMomentX = 1 << 13

// countStatsExact reports whether a grouping set with aggregates aggs
// over a relation of rows rows may keep count statistics: every
// aggregate is count(*) — so all observe the same counts — and rows is
// below maxStatRows.
func countStatsExact(aggs []engine.AggSpec, rows int) bool {
	if len(aggs) == 0 || rows >= maxStatRows {
		return false
	}
	for _, a := range aggs {
		if a.Func != engine.Count {
			return false
		}
	}
	return true
}

const (
	gTouched uint8 = 1 << iota // folded into by the current batch
	gFresh                     // created by the current batch
)

// mSplit is one (F, V) split of a grouping set.
type mSplit struct {
	f, v []string // sorted, as Pattern carries them
	fPos []int    // key columns of F, sorted-F order
	vPos []int    // key columns of V, sorted-V order
	// seqPos orders observations within a fragment: the predictor
	// attributes in the order of the sort order that first tested this
	// split, exactly as the miner's permutation sort left them.
	seqPos  []int
	frags   []*mFrag
	fragIdx map[string]int32 // F-key → index into frags; built on first use (fragIndex)
	fragOf  []int32          // per group: index of its fragment, so only fresh groups build a key
	dirty   []int32          // indices of the fragments the current batch dirtied
	cands   []*mCand
	numSupp []int // per aggregate: fragments with supported[ai] set
	// st holds, per fragment, the count statistics of a stat-kept
	// fragment (n > 0) and zero for one that walks; nil until a fragment
	// of the split is kept, and shorter than frags when the fragments
	// past its end walk.
	st []countStats
	// mo holds, per fragment, the Lin moments of a stat-kept fragment
	// on which a Lin candidate may hold (mFrag.moments), beside st and
	// like it grown on first use: momentStride(d) float64s at fi·stride,
	// for the split's d ≤ 2 predictors in sorted-V order Σx_j, then
	// Σx_j·y, then Σx_j·x_k for j ≤ k at 2d+j+k (countStats carry n, Σy
	// and Σy²).
	mo []float64
}

// momentStride is how many float64s a fragment's Lin moments over d
// predictors take: Σx_j and Σx_j·y per predictor, Σx_j·x_k per pair
// j ≤ k — 3 for one predictor, 7 for two.
func momentStride(d int) int { return 2*d + d*(d+1)/2 }

// countStats are a kept fragment's count statistics, 40 bytes: those
// of a regress.ConstStats over its groups' counts, plus how many groups
// hold the minimum (0: not known), so a grown minimum group forces a
// pass over the fragment only when it held the minimum alone.
type countStats struct {
	n, atMin         int32 // a count, like n, is below maxStatRows
	sum, sumSq       float64
	minimum, maximum float64
}

// mFrag is one fragment of a split: the groups it contains, in
// observation order, plus the per-aggregate support flag that feeds the
// λ denominator.
type mFrag struct {
	key       string // "" until fragKey names it
	groups    []int32
	supported []bool // per aggregate: numeric and |groups| ≥ δ
	dirty     bool
	newFirst  bool // the current batch put a fresh group first: Frag is rebuilt
	staleExt  bool // the current batch grew the last group known to hold the kept minimum
	moments   bool // kept statistics carry Lin moments (mSplit.mo): a Lin candidate may hold
}

// mCand is one (aggregate, model) candidate of a split.
type mCand struct {
	p pattern.Pattern
	// key caches p.Key() — the canonical identity Patterns and CandStats
	// order by and admission pushes match on. Candidates are fixed for
	// the maintainer's lifetime, so it is derived (two sorts plus string
	// joins) and sorted on once, at construction.
	key string
	sp  *mSplit
	agg int
	// locals holds, by fragment index, the candidate's local model on
	// each fragment it holds on, nil elsewhere; held counts them. It is
	// nil until a fragment holds, and shorter than sp.frags when those
	// past its end hold none: a candidate that never holds (Lin beside a
	// string predictor) costs no slots.
	locals []*pattern.LocalModel
	held   int
}

// NewMaintainer builds the retained mining state for tab under opt and
// performs the initial full fit; Patterns then equals ARPMine(tab, opt).
// tab is any mutable relation — the in-memory Table or a segment-backed
// SegTable, whose appended rows stream in via ScanRows without ever
// materializing the sealed segments. FD pruning is not maintainable (an
// FD detected on a prefix of the data can be violated by later rows,
// silently changing which candidates were skipped), so opt.UseFDs is
// rejected.
func NewMaintainer(tab engine.MutableRelation, opt Options) (*Maintainer, error) {
	opt, err := opt.withDefaults(tab)
	if err != nil {
		return nil, err
	}
	if opt.UseFDs {
		return nil, fmt.Errorf("mining: FD pruning is not supported by the incremental maintainer")
	}
	m := &Maintainer{tab: tab, opt: opt, synced: tab.NumRows(), epoch: tab.Epoch(), built: tab.Epoch()}
	pool := runPool(opt.Parallelism)
	levels, err := groupAll(tab, opt, pool, true)
	if err != nil {
		return nil, err
	}
	groupings := slices.Concat(levels...)
	m.gsets = make([]*gSet, len(groupings))
	err = pool.ForEach("mine:maintain-build", len(groupings), func(i int) error {
		gs, err := newGSet(groupings[i], opt, tab.NumRows())
		m.gsets[i] = gs
		return err
	})
	if err != nil {
		return nil, err
	}
	m.byAttrs = make(map[string]*gSet, len(m.gsets))
	for _, gs := range m.gsets {
		key, _ := m.attrKey(nil, gs.attrs)
		m.byAttrs[string(key)] = gs
		for _, sp := range gs.splits {
			m.cands = append(m.cands, sp.cands...)
		}
	}
	sort.Slice(m.cands, func(i, j int) bool { return m.cands[i].key < m.cands[j].key })
	return m, nil
}

// newGSet builds one grouping set's retained state from its retained
// group-by over a relation of rows rows: the split enumeration and one
// fit of every fragment.
func newGSet(gr *grouping, opt Options, rows int) (*gSet, error) {
	g, aggs, grp := gr.attrs, gr.aggs, gr.grp
	keys := grp.Keys()
	nG, na := keys.NumRows(), len(aggs)
	gs := &gSet{
		attrs: g,
		aggs:  aggs,
		grp:   grp,
		state: make([]uint8, nG),
		y:     make([]pattern.Obs, na),
		fit:   pattern.NewFragFit(na, opt.Models, opt.Thresholds),
	}
	for ai := range aggs {
		y := pattern.Obs{F: make([]float64, nG), OK: make([]bool, nG)}
		for gi := range y.F {
			y.F[gi], y.OK[gi] = grp.Result(gi, ai).AsFloat()
		}
		gs.y[ai] = y
	}

	var tm pattern.Timers // the build reports no timings
	var ends []int32
	exact := countStatsExact(aggs, rows)
	err := eachSplit(keys, g, &tm, func(f, v []string, perm []int32) error {
		sp, err := gs.newSplit(f, v, opt)
		if err != nil {
			return err
		}
		fCodes := make([][]int32, len(sp.fPos))
		for i, p := range sp.fPos {
			fCodes[i] = keys.Col(p).Codes
		}
		ends = pattern.FragmentEnds(ends, fCodes, perm)
		// One backing array per split: each fragment's groups are its
		// run of the sorted permutation, capped so an insertion copies
		// the fragment out instead of overwriting its neighbour.
		order := append([]int32(nil), perm...)
		frags := make([]mFrag, len(ends))
		supported := make([]bool, len(ends)*na)
		sp.frags = make([]*mFrag, len(ends))
		sp.fragOf = make([]int32, nG)
		lo := int32(0)
		for fi, hi := range ends {
			fr := &frags[fi]
			fr.groups = order[lo:hi:hi]
			fr.supported = supported[fi*na : (fi+1)*na : (fi+1)*na]
			sp.frags[fi] = fr
			for _, gi := range fr.groups {
				sp.fragOf[gi] = int32(fi)
			}
			gs.refit(sp, int32(fi), exact)
			lo = hi
		}
		gs.splits = append(gs.splits, sp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return gs, nil
}

// newSplit sets up the split (F, V) of gs — f and v in the order of the
// sort order that first tests it — with its candidates and no fragments.
func (gs *gSet) newSplit(f, v []string, opt Options) (*mSplit, error) {
	sp := &mSplit{
		f:       pattern.SortedCopy(f),
		v:       pattern.SortedCopy(v),
		numSupp: make([]int, len(gs.aggs)),
	}
	sch := gs.grp.Keys().Schema()
	for _, a := range sp.f {
		sp.fPos = append(sp.fPos, sch.Index(a))
	}
	for _, a := range sp.v {
		sp.vPos = append(sp.vPos, sch.Index(a))
	}
	for _, a := range v {
		sp.seqPos = append(sp.seqPos, sch.Index(a))
	}
	for ai, a := range gs.aggs {
		for _, mt := range opt.Models {
			p := pattern.Pattern{F: sp.f, V: sp.v, Agg: a, Model: mt}
			if err := p.Validate(); err != nil {
				return nil, err
			}
			sp.cands = append(sp.cands, &mCand{p: p, key: p.Key(), sp: sp, agg: ai})
		}
	}
	return sp, nil
}

// appendKey appends the canonical key bytes of group gi's values in the
// key columns cols to dst.
func (gs *gSet) appendKey(dst []byte, cols []int, gi int32) []byte {
	for _, ci := range cols {
		dst = gs.grp.Keys().Col(ci).Value(int(gi)).AppendKey(dst)
	}
	return dst
}

// Table returns the relation the maintainer tracks.
func (m *Maintainer) Table() engine.MutableRelation { return m.tab }

// Grouping returns GroupBy's table of γ_{cols, aggs}(R) over the rows
// folded so far, for the grouping set whose attributes are cols in any
// order and whose aggregates aggs include agg; the table has the set's
// column order. ok is false when no set matches, or when the table
// would not be GroupBy's over the relation as it stands: rows or the
// epoch moved since the last CatchUp, or folded rows were rewritten
// since the build. The table is published lazily, on the first call
// after a fold, under a per-set lock; CatchUp publishes nothing.
// Grouping may run concurrently with itself, never with CatchUp.
func (m *Maintainer) Grouping(cols []string, agg engine.AggSpec) (*engine.Table, bool) {
	if m.tab.NumRows() != m.synced || m.tab.Epoch() != m.epoch || m.tab.RewriteEpoch() > m.built {
		return nil, false
	}
	var buf [16]byte
	key, ok := m.attrKey(buf[:0], cols)
	gs := m.byAttrs[string(key)]
	if !ok || gs == nil || !slices.Contains(gs.aggs, agg) {
		return nil, false
	}
	gs.pub.Lock()
	defer gs.pub.Unlock()
	return gs.grp.Table(), true
}

// attrKey appends to dst the canonical key of the attribute set cols:
// the positions of its members in opt.Attributes, in that order, so
// every order of cols gives one key. ok is false when cols holds an
// attribute not mined over, or one twice.
func (m *Maintainer) attrKey(dst []byte, cols []string) (key []byte, ok bool) {
	n := 0
	for i, a := range m.opt.Attributes {
		if slices.Contains(cols, a) {
			dst = binary.AppendUvarint(dst, uint64(i))
			n++
		}
	}
	return dst, n == len(cols)
}

// Synced returns the number of table rows folded into the retained
// state, and the table epoch observed at that point.
func (m *Maintainer) Synced() (rows int, epoch uint64) { return m.synced, m.epoch }

// Candidates reports the ARPMine-equivalent candidate count: every
// (F, V, aggregate, model) combination the enumeration examines.
func (m *Maintainer) Candidates() int { return len(m.cands) }

// Apply appends rows to the table and folds them into the pattern set.
func (m *Maintainer) Apply(rows []value.Tuple) error {
	if err := m.tab.AppendRows(rows); err != nil {
		return err
	}
	return m.CatchUp()
}

// CatchUp folds any table rows appended since the last sync (by this
// maintainer or by other appenders) and re-fits the touched fragments.
// When rows already folded were rewritten since the build (RewriteEpoch:
// a Compact that stores equal values as one representative), a fold
// would keep the old values, so the state is rebuilt in place instead,
// as RetainedGroupBy.CatchUp rebuilds its own. A table that shrank is an
// error.
func (m *Maintainer) CatchUp() error {
	n := m.tab.NumRows()
	if n < m.synced {
		return fmt.Errorf("mining: table shrank from %d to %d rows; maintainer state is stale", m.synced, n)
	}
	if m.tab.RewriteEpoch() > m.built {
		fresh, err := NewMaintainer(m.tab, m.opt)
		if err != nil {
			return err
		}
		*m = *fresh
		return nil
	}
	if n == m.synced {
		m.epoch = m.tab.Epoch()
		return nil
	}
	pool := runPool(m.opt.Parallelism)

	// One streaming pass over the appended range folds every grouping
	// set — segment-backed relations decode each new row once, not once
	// per grouping set. Rows arrive through the scanner's reused buffer,
	// so they are slab-copied into bounded chunks; each flush fans the
	// grouping sets across the pool, every set folding the chunk's rows
	// in row order — the same per-set fold the sequential pass performs.
	// Chunking keeps the initial full catch-up memory-bounded (the table
	// is never buffered whole).
	width := len(m.tab.Schema())
	chunkRows := min(n-m.synced, maintainChunkRows)
	chunk := make([]value.Tuple, 0, chunkRows)
	slab := make([]value.V, 0, chunkRows*width)
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		err := pool.ForEach("mine:maintain-fold", len(m.gsets), func(i int) error {
			gs := m.gsets[i]
			for _, row := range chunk {
				gs.touch(gs.grp.Fold(row))
			}
			return nil
		})
		chunk, slab = chunk[:0], slab[:0]
		return err
	}
	err := m.tab.ScanRows(m.synced, n, func(row value.Tuple) error {
		slab = append(slab, row...)
		chunk = append(chunk, slab[len(slab)-width:len(slab):len(slab)])
		if len(chunk) == chunkRows {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}

	err = pool.ForEach("mine:maintain-refit", len(m.gsets), func(i int) error {
		gs := m.gsets[i]
		exact := countStatsExact(gs.aggs, n)
		if !exact {
			for _, sp := range gs.splits {
				sp.st, sp.mo = nil, nil // past the guard, or never kept: every fragment walks
			}
		}
		// Decode each touched group's aggregates once per batch; every
		// split's re-fit below reads only the flat columns. Kept
		// statistics need each touched group's count before the batch.
		gs.oldY = gs.oldY[:0]
		for _, gi := range gs.touched {
			if exact {
				gs.oldY = append(gs.oldY, gs.y[0].F[gi])
			}
			for ai := range gs.y {
				gs.y[ai].F[gi], gs.y[ai].OK[gi] = gs.grp.Result(int(gi), ai).AsFloat()
			}
		}
		for _, sp := range gs.splits {
			gs.routeTouched(sp)
			for _, fi := range sp.dirty {
				gs.refit(sp, fi, exact)
				sp.frags[fi].dirty = false
			}
			sp.dirty = sp.dirty[:0]
		}
		for _, gi := range gs.touched {
			gs.state[gi] = 0
		}
		gs.touched = gs.touched[:0]
		return nil
	})
	if err != nil {
		return err
	}
	m.synced = n
	m.epoch = m.tab.Epoch()
	return nil
}

// maintainChunkRows bounds how many appended rows CatchUp buffers
// between parallel folds.
var maintainChunkRows = 4096

// touch marks group gi, which an appended row was just folded into,
// touched by the current batch, growing the per-group state first when
// the row created the group (fresh).
func (gs *gSet) touch(gi int32, fresh bool) {
	if fresh {
		for ai := range gs.y {
			// Decoded once the batch is folded.
			gs.y[ai].F, gs.y[ai].OK = append(gs.y[ai].F, 0), append(gs.y[ai].OK, false)
		}
		gs.state = append(gs.state, gFresh)
	}
	if gs.state[gi]&gTouched == 0 {
		gs.state[gi] |= gTouched
		gs.touched = append(gs.touched, gi)
	}
}

// routeTouched maps every touched group to its fragment in sp, inserting
// fresh groups at their observation-order position, folds it into the
// fragment's count statistics when they are kept, and collects the
// dirty fragments.
func (gs *gSet) routeTouched(sp *mSplit) {
	var xc [regress.MaxMomentD]*engine.Col // the predictor columns, when moments are kept
	if sp.mo != nil {
		for j, ci := range sp.vPos {
			xc[j] = gs.grp.Keys().Col(ci)
		}
	}
	for ti, gi := range gs.touched {
		fresh := gs.state[gi]&gFresh != 0
		// Fresh groups sit in touched in creation order, so the append
		// below lands at fragOf[gi].
		if fresh {
			idx := gs.fragIndex(sp)
			gs.keyBuf = gs.appendKey(gs.keyBuf[:0], sp.fPos, gi)
			fi, ok := idx[string(gs.keyBuf)]
			if !ok {
				fi = int32(len(sp.frags))
				sp.frags = append(sp.frags, &mFrag{key: string(gs.keyBuf), supported: make([]bool, len(gs.aggs))})
				idx[sp.frags[fi].key] = fi
			}
			sp.fragOf = append(sp.fragOf, fi)
			fr := sp.frags[fi]
			// Insert at the observation-order position: predictor-sequence
			// values under value.Compare, ties after (the fresh group's
			// grouped-row index is larger than every existing one's).
			pos := sort.Search(len(fr.groups), func(i int) bool {
				return gs.obsLess(sp, gi, fr.groups[i])
			})
			fr.groups = append(fr.groups, 0)
			copy(fr.groups[pos+1:], fr.groups[pos:])
			fr.groups[pos] = gi
			fr.newFirst = fr.newFirst || pos == 0
		}
		fi := sp.fragOf[gi]
		if sp.kept(fi) && sp.frags[fi].moments {
			sp.foldMoments(xc[:len(sp.vPos)], fi, gi, gs.oldY[ti], gs.y[0].F[gi], fresh)
		}
		if sp.kept(fi) {
			sp.foldCount(fi, gs.oldY[ti], gs.y[0].F[gi], fresh)
		}
		if fr := sp.frags[fi]; !fr.dirty {
			fr.dirty = true
			sp.dirty = append(sp.dirty, fi)
		}
	}
}

// kept reports whether fragment fi keeps count statistics.
func (sp *mSplit) kept(fi int32) bool { return int(fi) < len(sp.st) && sp.st[fi].n > 0 }

// foldCount folds one touched group of kept fragment fi into its
// statistics: a group whose count went from old to y, or a fresh group
// of count y. Counts only grow, so a grown group that held the minimum
// alone (or among an unknown number) has raised it: the extremes go
// stale until the re-fit.
func (sp *mSplit) foldCount(fi int32, old, y float64, fresh bool) {
	s := &sp.st[fi]
	switch {
	case fresh:
		s.n++
		s.sum += y
		s.sumSq += y * y
		if y < s.minimum {
			s.minimum, s.atMin = y, 1
		} else if y == s.minimum && s.atMin > 0 {
			s.atMin++
		}
	default:
		s.sum += y - old
		s.sumSq += y*y - old*old
		if old == s.minimum {
			if s.atMin > 1 {
				s.atMin--
			} else {
				sp.frags[fi].staleExt = true
			}
		}
	}
	s.maximum = max(s.maximum, y)
}

// foldMoments folds one touched group gi of kept fragment fi into its
// Lin moments, xc being the split's predictor columns: Σx_j·y moves by
// x_j·(y − old) for a grown group, and a fresh group of count y adds to
// every moment. A fresh group with a predictor value that is not
// numeric makes the fragment Lin-free, its count statistics still kept;
// one with a value past the moment guard (not an integer, or |x| >
// maxMomentX) drops the fragment to walking.
func (sp *mSplit) foldMoments(xc []*engine.Col, fi, gi int32, old, y float64, fresh bool) {
	d, fr := len(xc), sp.frags[fi]
	w := momentStride(d)
	k := sp.mo[int(fi)*w : int(fi)*w+w]
	if !fresh {
		for j, c := range xc {
			k[d+j] += c.F64[gi] * (y - old)
		}
		return
	}
	var x [regress.MaxMomentD]float64
	for j, c := range xc {
		if !c.Num[gi] {
			fr.moments = false
			return
		}
		x[j] = c.F64[gi]
	}
	for _, v := range x[:d] {
		if v != math.Trunc(v) || math.Abs(v) > maxMomentX {
			sp.st[fi], fr.moments = countStats{}, false
			return
		}
	}
	for j := 0; j < d; j++ {
		k[j] += x[j]
		k[d+j] += x[j] * y
		for l := j; l < d; l++ {
			k[2*d+j+l] += x[j] * x[l]
		}
	}
}

// obsLess orders groups within a fragment: by the split's predictor
// sequence under value.Compare, then by grouped-row index — the order
// the miner's permutation sort visits them in.
func (gs *gSet) obsLess(sp *mSplit, a, b int32) bool {
	for _, p := range sp.seqPos {
		col := gs.grp.Keys().Col(p)
		if c := value.Compare(col.Value(int(a)), col.Value(int(b))); c != 0 {
			return c < 0
		}
	}
	return a < b
}

// refit re-evaluates every candidate of sp on fragment fi through the
// miner's own FragFit — from its count statistics when they are kept
// and no Lin candidate can hold (Lin-free, or ruled out by its kept Lin
// moments), else over the fragment's groups in observation order — and
// records the outcome: the support flags feeding the λ denominator and
// the local models, bitwise those of a cold re-mine. exact reports
// whether the grouping set may keep count statistics; a walked fragment
// that turns out Lin-free, or whose predictors pass the moment guard,
// then starts keeping them.
func (gs *gSet) refit(sp *mSplit, fi int32, exact bool) {
	ff, fr := gs.fit, sp.frags[fi]
	// A fragment's F values never change, so its Frag tuple carries over
	// — unless a fresh group now comes first, whose value may be another
	// member of the same class (Int(1) for Float(1), −0 for +0).
	var frag value.Tuple
	if !fr.newFirst {
		frag = sp.heldFrag(fi)
	}
	fr.newFirst = false
	if sp.kept(fi) && (!fr.moments || ff.LinImpossible(sp.moments(fi, &gs.lin))) {
		st := &sp.st[fi]
		if fr.staleExt {
			gs.recountExtremes(st, fr.groups)
			fr.staleExt = false
		}
		cs := regress.ConstStats{N: int(st.n), Sum: st.sum, SumSq: st.sumSq, Min: st.minimum, Max: st.maximum}
		ff.FitCounts(gs.grp.Keys(), sp.fPos, cs, fr.groups[0], frag)
		if fr.moments {
			gs.work.fromMoments++
		} else {
			gs.work.fromStats++
		}
	} else {
		ff.Fit(gs.grp.Keys(), sp.fPos, sp.vPos, gs.y, fr.groups, frag, nil)
		gs.work.walked += len(fr.groups)
		fr.staleExt = false // the walk found the extremes
		switch {
		case sp.kept(fi): // a Lin model may hold
			s, st := ff.Stats(), &sp.st[fi]
			st.minimum, st.maximum, st.atMin = s.Min, s.Max, 0
		case exact && ff.LinFree:
			sp.keep(fi, ff.Stats(), nil)
		case exact && ff.Moments(&gs.lin, maxMomentX):
			sp.keep(fi, ff.Stats(), &gs.lin)
		}
	}
	for ai, supp := range ff.Supported {
		if supp != fr.supported[ai] {
			fr.supported[ai] = supp
			if supp {
				sp.numSupp[ai]++
			} else {
				sp.numSupp[ai]--
			}
		}
	}
	for i, cs := range sp.cands {
		lm := ff.Locals[i]
		if lm != nil {
			gs.fragKey(sp, fr) // Patterns keys the local by it
		}
		cs.setLocal(fi, lm)
	}
}

// recountExtremes recomputes a kept fragment's min and max count, and
// the groups at the min, from its groups' y values: one pass, no
// gather, no fit.
func (gs *gSet) recountExtremes(st *countStats, groups []int32) {
	y := gs.y[0].F
	lo, hi, atMin := y[groups[0]], y[groups[0]], int32(0)
	for _, gi := range groups {
		switch v := y[gi]; {
		case v < lo:
			lo, atMin = v, 1
		case v == lo:
			atMin++
		case v > hi:
			hi = v
		}
	}
	st.minimum, st.maximum, st.atMin = lo, hi, atMin
	gs.work.walked += len(groups)
	gs.work.extremes++
}

// keep starts keeping fragment fi's count statistics, seeded with the
// walk's s, and its Lin moments when mo is non-nil (from the same
// walk); the groups at its minimum are counted when first needed.
func (sp *mSplit) keep(fi int32, s regress.ConstStats, mo *regress.LinMoments) {
	n := len(sp.frags)
	if len(sp.st) < n {
		sp.st = append(sp.st, make([]countStats, n-len(sp.st))...)
	}
	sp.st[fi] = countStats{n: int32(s.N), sum: s.Sum, sumSq: s.SumSq, minimum: s.Min, maximum: s.Max}
	sp.frags[fi].moments = mo != nil
	if mo == nil {
		return
	}
	d := mo.D
	p, w := d+1, momentStride(d)
	if len(sp.mo) < n*w {
		sp.mo = append(sp.mo, make([]float64, n*w-len(sp.mo))...)
	}
	k := sp.mo[int(fi)*w : int(fi)*w+w]
	for j := 0; j < d; j++ {
		k[j], k[d+j] = mo.XtX[j+1], mo.XtY[j+1]
		for l := j; l < d; l++ {
			k[2*d+j+l] = mo.XtX[(j+1)*p+l+1]
		}
	}
}

// moments sets mo to kept fragment fi's Lin moments, the normal
// equations FitLinInto would accumulate over its groups, and returns it.
func (sp *mSplit) moments(fi int32, mo *regress.LinMoments) *regress.LinMoments {
	st, d := &sp.st[fi], len(sp.vPos)
	p, w := d+1, momentStride(d)
	k := sp.mo[int(fi)*w : int(fi)*w+w]
	*mo = regress.LinMoments{D: d, SumSq: st.sumSq}
	mo.XtX[0], mo.XtY[0] = float64(st.n), st.sum
	for j := 0; j < d; j++ {
		mo.XtX[j+1], mo.XtX[(j+1)*p], mo.XtY[j+1] = k[j], k[j], k[d+j]
		for l := j; l < d; l++ {
			v := k[2*d+j+l]
			mo.XtX[(j+1)*p+l+1], mo.XtX[(l+1)*p+j+1] = v, v
		}
	}
	return mo
}

// heldFrag returns the Frag tuple of a local model some candidate of sp
// holds on fragment fi, or nil when none holds.
func (sp *mSplit) heldFrag(fi int32) value.Tuple {
	for _, cs := range sp.cands {
		if int(fi) < len(cs.locals) && cs.locals[fi] != nil {
			return cs.locals[fi].Frag
		}
	}
	return nil
}

// setLocal records lm (nil: no hold) as the candidate's local model on
// fragment fi.
func (cs *mCand) setLocal(fi int32, lm *pattern.LocalModel) {
	if int(fi) >= len(cs.locals) {
		if lm == nil {
			return
		}
		cs.locals = append(cs.locals, make([]*pattern.LocalModel, len(cs.sp.frags)-len(cs.locals))...)
	}
	switch old := cs.locals[fi]; {
	case old == nil && lm != nil:
		cs.held++
	case old != nil && lm == nil:
		cs.held--
	}
	cs.locals[fi] = lm
}

// work sums the grouping sets' re-fit counters.
func (m *Maintainer) work() refitWork {
	var w refitWork
	for _, gs := range m.gsets {
		w.walked += gs.work.walked
		w.fromStats += gs.work.fromStats
		w.fromMoments += gs.work.fromMoments
		w.extremes += gs.work.extremes
	}
	return w
}

// fragKey returns fr's key, the canonical key bytes of its F values,
// naming it on first use: the build names only the fragments a candidate
// holds on, as ARPMine does. A key is never empty.
func (gs *gSet) fragKey(sp *mSplit, fr *mFrag) string {
	if fr.key == "" {
		gs.keyBuf = gs.appendKey(gs.keyBuf[:0], sp.fPos, fr.groups[0])
		fr.key = string(gs.keyBuf)
	}
	return fr.key
}

// fragIndex returns sp's key → fragment lookup, built when the first
// fresh group reaches the split.
func (gs *gSet) fragIndex(sp *mSplit) map[string]int32 {
	if sp.fragIdx == nil {
		sp.fragIdx = make(map[string]int32, len(sp.frags))
		for fi, fr := range sp.frags {
			sp.fragIdx[gs.fragKey(sp, fr)] = int32(fi)
		}
	}
	return sp.fragIdx
}

// Patterns assembles the globally-holding pattern set from the retained
// state: the same Definition-4 gates, counters, and deviation extremes
// a cold ARPMine run computes, sorted by pattern key. The returned
// Mined values are fresh (maps built from the slots); the LocalModels
// are shared but immutable — re-fits replace them, never mutate.
func (m *Maintainer) Patterns() []*pattern.Mined {
	var out []*pattern.Mined
	for _, cs := range m.cands {
		supp := cs.sp.numSupp[cs.agg]
		conf, ok := m.opt.Thresholds.HoldsGlobally(cs.held, supp)
		if !ok {
			continue
		}
		mined := &pattern.Mined{
			Pattern:      cs.p,
			Locals:       make(map[string]*pattern.LocalModel, cs.held),
			NumFragments: len(cs.sp.frags),
			NumSupported: supp,
			Confidence:   conf,
		}
		for fi, lm := range cs.locals {
			if lm != nil {
				mined.AddLocal(cs.sp.frags[fi].key, lm)
			}
		}
		out = append(out, mined)
	}
	return out
}

// CandStat is the raw per-candidate evidence behind the Definition-4
// global gates, before any threshold is applied: how many fragments the
// candidate's split produced, how many were supported (≥ LocalSupport
// rows, numeric aggregate), and how many of those yielded a good local
// fit (GoF ≥ Theta). A sharded deployment mines each shard with
// loosened global thresholds (λ=0, Δ=1), sums these counters across
// shards — fragments are disjoint between shards when the shard key is
// part of every F — and applies the real λ/Δ gates to the totals,
// reproducing single-node admission exactly.
type CandStat struct {
	// Key is the candidate pattern's canonical identity (pattern.Key()).
	Key string
	// Good counts fragments with a passing local fit. Zero is
	// meaningful: a shard holding supported-but-unfit fragments still
	// contributes to the global confidence denominator.
	Good int
	// Supported counts fragments meeting the local support gate.
	Supported int
	// Fragments counts all fragments of the candidate's (F, V) split.
	Fragments int
}

// CandStats reports the raw evidence for every candidate the miner
// enumerated — including candidates Patterns() would gate out — sorted
// by pattern key.
func (m *Maintainer) CandStats() []CandStat {
	out := make([]CandStat, len(m.cands))
	for i, cs := range m.cands {
		out[i] = CandStat{
			Key:       cs.key,
			Good:      cs.held,
			Supported: cs.sp.numSupp[cs.agg],
			Fragments: len(cs.sp.frags),
		}
	}
	return out
}
