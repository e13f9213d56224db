package engine

import "cape/internal/value"

// Relation is the query surface the mining and explanation layers need
// from a base relation: the grouped aggregation γ every part of the
// paper's pipeline reads it through (ARP-MINE's shared group-bys, the
// Maintainer's retained groupings, explanation's drill-downs and NORM),
// distinct counts, and schema/size/staleness introspection. Both the
// in-memory Table and the segment-backed SegTable implement it, so
// miners and explainers run unchanged over tables larger than RAM.
//
// GroupBy's result is always an in-memory *Table: grouped results are
// bounded by attribute domains, not base-table size, which is what
// makes mining over a mmap'd base relation practical. GroupBy with no
// aggregates is the distinct projection δ; CUBE is the free function
// Cube; selection σ is Table.SelectEq, over a dense table only.
type Relation interface {
	Schema() Schema
	NumRows() int
	// Epoch counts mutations; equal epochs bracket a window with no
	// mutations, which caches use for staleness checks.
	Epoch() uint64
	GroupBy(groupCols []string, aggs []AggSpec) (*Table, error)
	CountDistinct(cols []string) (int, error)
}

// RowScanner streams rows of a half-open range in row order. The tuple
// passed to fn may be reused between calls; callers that retain values
// must copy them (value.V copies are cheap and safe — string payloads
// are immutable).
type RowScanner interface {
	ScanRows(lo, hi int, fn func(row value.Tuple) error) error
}

// MutableRelation is a Relation that accepts appends and supports
// streaming row access — what incremental maintenance (mining.Maintainer,
// the explanation cache's retained groupings) requires of its base table.
type MutableRelation interface {
	Relation
	RowScanner
	AppendRows(rows []value.Tuple) error
	// GroupByAccums builds γ_{groupCols, aggs} over the current rows as a
	// RetainedGroupBy, which later appends fold into.
	GroupByAccums(groupCols []string, aggs []AggSpec) (*RetainedGroupBy, error)
	// RewriteEpoch is the epoch of the last mutation that changed rows
	// already present rather than appending — a Table's SortBy, a
	// SegTable's Compact of values a segment reads back differently —
	// or 0.
	// State synced at epoch e still describes a prefix of the relation
	// exactly when RewriteEpoch() <= e.
	RewriteEpoch() uint64
}

var (
	_ MutableRelation = (*Table)(nil)
	_ MutableRelation = (*SegTable)(nil)
)

// ScanRows implements RowScanner for Table: each row is materialized
// from the columns into one tuple reused between calls.
func (t *Table) ScanRows(lo, hi int, fn func(row value.Tuple) error) error {
	row := make(value.Tuple, 0, len(t.cols))
	for r := lo; r < hi; r++ {
		row = t.appendRow(row[:0], r)
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}
