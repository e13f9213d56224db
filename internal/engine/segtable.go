package engine

import (
	"fmt"
	"sync"

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
	// rewrite is the epoch of the last Compact that changed a value; see
	// RewriteEpoch.
	rewrite uint64

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

// RewriteEpoch returns the epoch of the last Compact that changed a
// value, or 0. Sealed segments are immutable and Compact keeps row
// order, but a segment reads each value back as its class's dictionary
// representative (see the canonicalization note in segment.go), so
// sealing a tail that holds, say, both 0.0 and −0.0 in one column
// rewrites rows already present.
func (st *SegTable) RewriteEpoch() uint64 { return st.rewrite }

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
	exact := true
	for _, c := range st.tail.cols {
		exact = exact && c.canonical()
	}
	w := NewSegmentWriter(st.schema)
	w.adopt(st.tail)
	st.segs = append(st.segs, w.Segment())
	st.sealed += n
	st.tail = NewTable(st.schema)
	st.invalidateUnify()
	st.epoch++
	if !exact {
		st.rewrite = st.epoch
	}
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

// ScanRows streams rows [lo, hi) in row order. The tuple passed to fn
// is reused between calls — fn must copy any value it retains.
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
	if e := hi - base; e > 0 {
		return st.tail.ScanRows(max(lo-base, 0), e, fn)
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

// Materialize decodes the whole table into one in-memory Table: one
// copy of every row, through ScanRows, for callers that need a dense
// table's own operators (Table.SelectEq). It costs full decode + row
// memory.
func (st *SegTable) Materialize() *Table {
	out := NewTable(st.schema)
	// The range is the whole table and the callback never fails, so
	// neither does the scan.
	_ = st.ScanRows(0, st.NumRows(), func(row value.Tuple) error {
		out.push(row)
		return nil
	})
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
	return groupByParts(st.parts(gIdx, aCols), len(gIdx), aCols, sch), nil
}

// CountDistinct counts distinct combinations of the named columns under
// AppendKey equality (see countDistinctParts). No columns count one
// combination in a non-empty table.
func (st *SegTable) CountDistinct(cols []string) (int, error) {
	idx, err := st.schema.Indices(cols)
	if err != nil {
		return 0, err
	}
	if len(idx) == 0 || st.NumRows() == 0 {
		return min(st.NumRows(), 1), nil
	}
	return countDistinctParts(st.parts(idx, nil), len(idx)), nil
}
