package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cape/internal/value"
)

// SegTable is a relation stored as a sequence of sealed, immutable
// columnar segments (typically mmap'd from segment files) followed by
// one uncompressed in-memory tail that absorbs appends. Row order is
// segments in order, then the tail — appends land at the global end, so
// the incremental-maintenance invariants (group fold order, fragment
// observation order) carry over from Table unchanged.
//
// Queries run on the parts kernels directly over segment runs plus the
// tail as a dense part; results are byte-identical to
// loading the same rows into a Table (for kind-pure columns; see the
// dictionary-canonicalization note in segment.go). Sealed segments are
// never mutated: Compact seals the current tail into a new in-memory
// segment and resets the tail, leaving row order untouched.
//
// SegTable is not safe for concurrent mutation; concurrent reads are
// fine (same contract as Table).
type SegTable struct {
	schema Schema
	segs   []*Segment
	tail   *Table
	sealed int // rows across segs
	epoch  uint64
	// pool, when set, lets the parts kernels fan morsels and parts
	// across a shared worker pool (SetPool); see morsel.go.
	pool atomic.Pointer[Pool]

	// unify caches, per column index, the cross-segment dictionary
	// unification the compressed group-by keys on (see colUnify).
	// Sealed segments are immutable, so entries stay valid until the
	// segment list itself changes (AddSegment, Compact); tail-only
	// appends never invalidate. Guarded by unifyMu because concurrent
	// readers build entries lazily.
	unifyMu sync.Mutex
	unify   map[int]*colUnify
}

// colUnify is the cached dictionary unification of one column across
// the sealed segments: segXl[j] maps segment j's local codes to
// column-global codes (nil when the mapping is the identity — always
// true for the first segment), and m (canonical AppendKey bytes →
// global code) extends the same numbering over the append tail's
// dictionary at query time. m is never mutated after the build — unseen
// tail values get codes from a per-query overlay.
type colUnify struct {
	segXl [][]int32
	m     map[string]int32
}

// NewSegTable creates an empty segment table with the given schema.
func NewSegTable(schema Schema) *SegTable {
	return &SegTable{schema: schema.Clone(), tail: NewTable(schema)}
}

// NewSegTableFromSegments assembles a table from sealed segments, whose
// schemas must agree.
func NewSegTableFromSegments(segs ...*Segment) (*SegTable, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("engine: no segments")
	}
	st := NewSegTable(segs[0].Schema())
	for _, s := range segs {
		if err := st.AddSegment(s); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// OpenSegTable opens the segment files at paths (validating checksums)
// and assembles them into one table. Close releases the mappings.
func OpenSegTable(paths ...string) (*SegTable, error) {
	var segs []*Segment
	for _, p := range paths {
		s, err := OpenSegment(p)
		if err != nil {
			for _, prev := range segs {
				prev.Close()
			}
			return nil, err
		}
		segs = append(segs, s)
	}
	return NewSegTableFromSegments(segs...)
}

// Schema returns the table's schema (callers must not mutate it).
func (st *SegTable) Schema() Schema { return st.schema }

// NumRows reports the total row count (sealed segments + tail).
func (st *SegTable) NumRows() int { return st.sealed + st.tail.NumRows() }

// NumSegments reports how many sealed segments back the table.
func (st *SegTable) NumSegments() int { return len(st.segs) }

// TailRows reports how many rows sit in the uncompressed tail.
func (st *SegTable) TailRows() int { return st.tail.NumRows() }

// Epoch returns the mutation counter (AppendRows, AddSegment, Compact).
func (st *SegTable) Epoch() uint64 { return st.epoch }

// RestoreEpoch overwrites the mutation counter. Recovery paths
// (internal/store) use it after reassembling a table from persisted
// segments so the epoch sequence matches the one the original table went
// through; see Table.RestoreEpoch.
func (st *SegTable) RestoreEpoch(e uint64) { st.epoch = e }

// SetPool attaches a worker pool for the query kernels to fan morsels
// and parts across (nil restores sequential execution). Results are
// byte-identical at any pool width; see morsel.go.
func (st *SegTable) SetPool(p *Pool) { st.pool.Store(p) }

func (st *SegTable) queryPool() *Pool { return st.pool.Load() }

// AddSegment appends a sealed segment. To preserve row order it is only
// legal while the tail is empty (segments always precede tail rows);
// Compact first if appends have landed.
func (st *SegTable) AddSegment(seg *Segment) error {
	if !st.schema.Equal(seg.Schema()) {
		return fmt.Errorf("engine: segment schema mismatch")
	}
	if st.tail.NumRows() > 0 {
		return fmt.Errorf("engine: cannot add a segment behind a non-empty tail (Compact first)")
	}
	st.segs = append(st.segs, seg)
	st.sealed += seg.NumRows()
	st.invalidateUnify()
	st.epoch++
	return nil
}

// invalidateUnify drops the cached per-column dictionary unifications;
// called whenever the sealed segment list changes.
func (st *SegTable) invalidateUnify() {
	st.unifyMu.Lock()
	st.unify = nil
	st.unifyMu.Unlock()
}

// colUnify returns (building and caching on first use) the dictionary
// unification of column ci across the sealed segments. Cost is one pass
// over each segment's dictionary — paid once per column per segment-list
// epoch, not once per query.
func (st *SegTable) colUnify(ci int) *colUnify {
	st.unifyMu.Lock()
	defer st.unifyMu.Unlock()
	if u, ok := st.unify[ci]; ok {
		return u
	}
	u := &colUnify{m: make(map[string]int32)}
	var buf []byte
	for _, seg := range st.segs {
		dict := seg.Col(ci).dict
		xl := make([]int32, len(dict))
		ident := true
		for c, v := range dict {
			buf = v.AppendKey(buf[:0])
			g, ok := u.m[string(buf)]
			if !ok {
				g = int32(len(u.m))
				u.m[string(buf)] = g
			}
			xl[c] = g
			if g != int32(c) {
				ident = false
			}
		}
		if ident {
			xl = nil // identity (always true for the first segment): skip translation
		}
		u.segXl = append(u.segXl, xl)
	}
	if st.unify == nil {
		st.unify = make(map[int]*colUnify)
	}
	st.unify[ci] = u
	return u
}

// tailXlat extends a column's cached unification over the live tail
// dictionary for one query: values the sealed segments know resolve to
// their cached code, unseen ones get fresh codes from a local overlay
// (the shared map is never written, so concurrent queries stay safe).
func tailXlat(u *colUnify, dict []value.V) []int32 {
	xl := make([]int32, len(dict))
	next := int32(len(u.m))
	var buf []byte
	var overlay map[string]int32
	for c, v := range dict {
		buf = v.AppendKey(buf[:0])
		if g, ok := u.m[string(buf)]; ok {
			xl[c] = g
			continue
		}
		if g, ok := overlay[string(buf)]; ok {
			xl[c] = g
			continue
		}
		if overlay == nil {
			overlay = make(map[string]int32)
		}
		overlay[string(buf)] = next
		xl[c] = next
		next++
	}
	return xl
}

// AppendRows appends a batch to the uncompressed tail — sealed segments
// are immutable and never touched by appends. Validation and atomicity
// match Table.AppendRows.
func (st *SegTable) AppendRows(rows []value.Tuple) error {
	if err := st.tail.AppendRows(rows); err != nil {
		return err
	}
	if len(rows) > 0 {
		st.epoch++
	}
	return nil
}

// Append appends one row to the tail.
func (st *SegTable) Append(row value.Tuple) error {
	if err := st.tail.Append(row); err != nil {
		return err
	}
	st.epoch++
	return nil
}

// Compact seals the current tail into a new in-memory segment and
// resets the tail. Row order is unchanged (the tail's rows were already
// last), so derived state keyed to row positions — retained aggregates,
// fragment membership — stays valid across a compaction.
func (st *SegTable) Compact() error {
	n := st.tail.NumRows()
	if n == 0 {
		return nil
	}
	w := NewSegmentWriter(st.schema)
	if err := w.AppendRows(st.tail.Rows()); err != nil {
		return err
	}
	st.segs = append(st.segs, w.Segment())
	st.sealed += n
	st.tail = NewTable(st.schema)
	st.invalidateUnify()
	st.epoch++
	return nil
}

// Close releases every mmap'd segment. The table must not be used
// afterwards.
func (st *SegTable) Close() error {
	var first error
	for _, s := range st.segs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	st.segs = nil
	return first
}

// ScanRows streams rows [lo, hi) in row order. Tuples materialized from
// segments are reused between calls — fn must copy any value it
// retains (tail rows are passed as stored, per the Table contract).
func (st *SegTable) ScanRows(lo, hi int, fn func(row value.Tuple) error) error {
	if lo < 0 || hi > st.NumRows() || lo > hi {
		return fmt.Errorf("engine: ScanRows range [%d, %d) out of bounds", lo, hi)
	}
	buf := make(value.Tuple, 0, len(st.schema))
	base := 0
	for _, seg := range st.segs {
		n := seg.NumRows()
		s, e := lo-base, hi-base
		if s < n && e > 0 {
			if s < 0 {
				s = 0
			}
			if e > n {
				e = n
			}
			for r := s; r < e; r++ {
				buf = seg.AppendRowAt(r, buf[:0])
				if err := fn(buf); err != nil {
					return err
				}
			}
		}
		base += n
	}
	s, e := lo-base, hi-base
	rows := st.tail.Rows()
	if s < len(rows) && e > 0 {
		if s < 0 {
			s = 0
		}
		for _, r := range rows[s:e] {
			if err := fn(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// parts assembles the kernel parts for a query over key columns gIdx
// and aggregate columns aCols: one part per sealed segment (columns
// served straight from the segment, bit-packed payloads mmap'd) plus,
// when non-empty, the tail as a dense part whose key codes translate
// through the cached cross-segment unification (a table that is all
// tail is one solo part, like a Table).
func (st *SegTable) parts(gIdx []int, aCols []aggCol) []*compPart {
	nK := len(gIdx)
	out := make([]*compPart, 0, len(st.segs)+1)
	unify := make([]*colUnify, nK)
	for i, ci := range gIdx {
		unify[i] = st.colUnify(ci)
	}
	cols := partCols(gIdx, aCols)
	for si, seg := range st.segs {
		p := &compPart{n: seg.NumRows(), seg: seg, cols: cols}
		p.keys = make([]*CompressedCol, nK)
		p.xlat = make([][]int32, nK)
		for i, ci := range gIdx {
			p.keys[i] = seg.Col(ci)
			p.xlat[i] = unify[i].segXl[si]
		}
		p.aggs = make([]*CompressedCol, len(aCols))
		for i, ac := range aCols {
			if ac.idx >= 0 {
				p.aggs[i] = seg.Col(ac.idx)
			}
		}
		out = append(out, p)
	}
	if st.tail.NumRows() > 0 {
		p := densePart(st.tail, gIdx, aCols)
		if p.solo = len(st.segs) == 0; !p.solo {
			p.xlat = make([][]int32, nK)
			for i := range gIdx {
				p.xlat[i] = tailXlat(unify[i], p.keys[i].dict)
			}
		}
		out = append(out, p)
	}
	return out
}

// materialize decodes the whole table into an in-memory Table — the
// correctness fallback for equality probes where code comparison
// diverges from value.Equal, and for the degenerate no-column and empty
// queries. It costs full decode + row memory and is expected to be rare.
func (st *SegTable) materialize() *Table {
	out := NewTable(st.schema)
	rows := make([]value.Tuple, 0, st.NumRows())
	width := len(st.schema)
	for _, seg := range st.segs {
		n := seg.NumRows()
		slab := make(value.Tuple, 0, n*width)
		for r := 0; r < n; r++ {
			slab = seg.AppendRowAt(r, slab)
			rows = append(rows, slab[len(slab)-width:len(slab):len(slab)])
		}
	}
	rows = append(rows, st.tail.Rows()...)
	out.rows = rows
	return out
}

// GroupBy evaluates the grouped aggregation over all segments and the
// tail via the parts kernels; output is byte-identical to Table GroupBy
// over the same rows (group order, key values, aggregate results, float
// summation order).
func (st *SegTable) GroupBy(groupCols []string, aggs []AggSpec) (*Table, error) {
	gIdx, aCols, sch, err := groupPlan(st.schema, groupCols, aggs)
	if err != nil {
		return nil, err
	}
	return groupByPartsPool(st.queryPool(), st.parts(gIdx, aCols), len(gIdx), aCols, sch), nil
}

// SelectEq returns the rows whose values in cols equal vals, in row
// order, materialized into an in-memory Table.
func (st *SegTable) SelectEq(cols []string, vals value.Tuple) (*Table, error) {
	idx, err := st.schema.Indices(cols)
	if err != nil {
		return nil, err
	}
	if len(vals) != len(cols) {
		return nil, fmt.Errorf("engine: SelectEq got %d values for %d columns", len(vals), len(cols))
	}
	if len(idx) == 0 || st.NumRows() == 0 {
		return st.materialize().SelectEq(cols, vals)
	}
	parts := st.parts(idx, nil)
	want, divergent := selectEqPlanParts(parts, vals)
	if divergent {
		return st.materialize().SelectEq(cols, vals)
	}
	// Each part's matches are independent: sealed segments answer from
	// their code-span indexes and materialize matching rows into private
	// slabs; the tail scans its codes in place. Parts fan across the pool
	// and concatenate in part order, so the output row order is the
	// global row order either way.
	out := NewTable(st.schema)
	width := len(st.schema)
	partRows := make([][]value.Tuple, len(parts))
	_ = st.queryPool().ForEach("engine:selecteq", len(parts), func(pi int) error {
		if want[pi] == nil {
			return nil
		}
		p := parts[pi]
		var matched []value.Tuple
		emit := func(lo, hi int32) {
			matched = append(matched, p.rows[lo:hi]...)
		}
		if p.rows == nil {
			emit = func(lo, hi int32) {
				slab := make(value.Tuple, 0, int(hi-lo)*width)
				for r := lo; r < hi; r++ {
					slab = p.seg.AppendRowAt(int(r), slab)
					matched = append(matched, slab[len(slab)-width:len(slab):len(slab)])
				}
			}
		}
		selectEqPart(p, want[pi], emit)
		partRows[pi] = matched
		return nil
	})
	for _, rs := range partRows {
		out.rows = append(out.rows, rs...)
	}
	return out, nil
}

// CountDistinct counts distinct combinations of the named columns under
// AppendKey equality (see countDistinctParts).
func (st *SegTable) CountDistinct(cols []string) (int, error) {
	idx, err := st.schema.Indices(cols)
	if err != nil {
		return 0, err
	}
	if len(idx) == 0 || st.NumRows() == 0 {
		return st.materialize().CountDistinct(cols)
	}
	return countDistinctParts(st.parts(idx, nil), len(idx)), nil
}

// DistinctProject returns the distinct combinations of the named
// columns in first-appearance order.
func (st *SegTable) DistinctProject(cols []string) (*Table, error) {
	idx, err := st.schema.Indices(cols)
	if err != nil {
		return nil, err
	}
	if len(idx) == 0 || st.NumRows() == 0 {
		return st.materialize().DistinctProject(cols)
	}
	sch := make(Schema, len(idx))
	for i, ci := range idx {
		sch[i] = st.schema[ci]
	}
	return distinctParts(st.parts(idx, nil), sch), nil
}

// Cube evaluates the aggregation for every subset of cols within the
// size bounds, exactly like Table.Cube, with each grouping served by
// the parts kernels.
func (st *SegTable) Cube(cols []string, minSize, maxSize int, aggs []AggSpec) (*Table, error) {
	return cubeOver(st, false, cols, minSize, maxSize, aggs)
}
