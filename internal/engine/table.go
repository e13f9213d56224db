package engine

import (
	"fmt"
	"sort"
	"strings"

	"cape/internal/value"
)

// Table is an in-memory relation stored as its columns: one Col per
// schema column, each holding every row's exact value (kind plus flat
// float64/int64 buffers and a null bitmap) and its dictionary code.
// Appends extend the columns in place; the operator kernels read them
// directly. Row and Rows materialize tuples from the columns for
// results, tests and examples. The table is not safe for concurrent
// mutation; concurrent reads are fine.
type Table struct {
	schema Schema
	cols   []*Col
	n      int
	// epoch counts mutations (Append, AppendRows, SortBy). Consumers that
	// cache anything derived from the table — explanation caches, mined
	// pattern sets, persisted stores — record the epoch they saw and
	// compare it later to detect staleness instead of guessing.
	epoch uint64
	// rewrite is the epoch SortBy last left; see RewriteEpoch.
	rewrite uint64
}

// NewTable creates an empty table with the given schema.
func NewTable(schema Schema) *Table {
	t := &Table{schema: schema.Clone(), cols: make([]*Col, len(schema))}
	for i := range t.cols {
		t.cols[i] = &Col{}
	}
	return t
}

// Schema returns the table's schema (callers must not mutate it).
func (t *Table) Schema() Schema { return t.schema }

// NumRows reports the number of rows.
func (t *Table) NumRows() int { return t.n }

// Col returns column ci (schema position). Its buffers are the table's
// storage: callers must not mutate them.
func (t *Table) Col(ci int) *Col { return t.cols[ci] }

// Row materializes row i into a freshly allocated tuple.
func (t *Table) Row(i int) value.Tuple {
	return t.appendRow(make(value.Tuple, 0, len(t.cols)), i)
}

// appendRow appends row i's values to dst.
func (t *Table) appendRow(dst value.Tuple, i int) value.Tuple {
	for _, c := range t.cols {
		dst = append(dst, c.Value(i))
	}
	return dst
}

// Rows materializes every row, allocating one slab for all of them;
// callers that only scan should prefer ScanRows or the columns.
func (t *Table) Rows() []value.Tuple {
	width := len(t.cols)
	slab := make(value.Tuple, 0, t.n*width)
	rows := make([]value.Tuple, t.n)
	for i := range rows {
		slab = t.appendRow(slab, i)
		rows[i] = slab[i*width : (i+1)*width : (i+1)*width]
	}
	return rows
}

// Epoch returns the table's mutation counter. It starts at 0 and
// increments once per mutating call (Append, AppendRows, SortBy), so two
// reads returning the same epoch bracket a window with no mutations.
func (t *Table) Epoch() uint64 { return t.epoch }

// RestoreEpoch overwrites the mutation counter. It exists for recovery
// paths (internal/store) that rebuild a table from persisted state and
// must reproduce the exact epoch sequence the original table went
// through, so persisted pattern-store stamps keep comparing correctly
// against the rebuilt table. It must not be used to mask mutations.
func (t *Table) RestoreEpoch(e uint64) { t.epoch = e }

// RewriteEpoch returns the epoch of the last SortBy — the one mutation
// that reorders rows already present — or 0 if rows were only ever
// appended.
func (t *Table) RewriteEpoch() uint64 { return t.rewrite }

// Append adds a row, copying its values into the columns. The arity
// must match the schema, and each value must match the column kind
// unless the column is untyped or the value is NULL.
func (t *Table) Append(row value.Tuple) error {
	if err := t.schema.ValidateRow(row); err != nil {
		return err
	}
	t.push(row)
	t.epoch++
	return nil
}

// AppendRows appends a batch of rows atomically: every row is validated
// before any is appended, so a bad row in the middle of a batch leaves
// the table untouched. The values are copied into the columns, one
// column at a time with its buffers sized once for the batch, and the
// epoch advances by exactly one.
func (t *Table) AppendRows(rows []value.Tuple) error {
	for i, row := range rows {
		if err := t.schema.ValidateRow(row); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	if len(rows) == 0 {
		return nil
	}
	var key []byte
	for ci, c := range t.cols {
		c.grow(len(rows))
		for _, row := range rows {
			key = c.push(row[ci], key)
		}
	}
	t.n += len(rows)
	t.epoch++
	return nil
}

// push appends one already validated row without touching the epoch.
func (t *Table) push(row value.Tuple) {
	var buf [24]byte
	key := buf[:0]
	for ci, c := range t.cols {
		key = c.push(row[ci], key)
	}
	t.n++
}

// MustAppend is Append that panics on error; intended for tests and
// generators that construct rows programmatically.
func (t *Table) MustAppend(row value.Tuple) {
	if err := t.Append(row); err != nil {
		panic(err)
	}
}

// Clone returns a deep copy of the table. The clone carries the
// source's epoch, so staleness checks against a snapshot taken before
// cloning still line up.
func (t *Table) Clone() *Table {
	out := t.gather(t.allRows())
	out.epoch, out.rewrite = t.epoch, t.rewrite
	return out
}

// allRows lists every row index in order.
func (t *Table) allRows() []int32 {
	idx := make([]int32, t.n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// gather returns a new table holding t's rows idx, in that order.
func (t *Table) gather(idx []int32) *Table {
	out := &Table{schema: t.schema.Clone(), cols: make([]*Col, len(t.cols)), n: len(idx)}
	for ci, c := range t.cols {
		out.cols[ci] = c.gather(idx)
	}
	return out
}

// SelectEq returns the rows whose values in cols equal vals positionally
// under value.Equal. It compares dictionary codes, which are exactly the
// value.Equal classes; no columns select every row.
func (t *Table) SelectEq(cols []string, vals value.Tuple) (*Table, error) {
	idx, err := t.schema.Indices(cols)
	if err != nil {
		return nil, err
	}
	if len(vals) != len(cols) {
		return nil, fmt.Errorf("engine: SelectEq got %d values for %d columns", len(vals), len(cols))
	}
	if len(idx) == 0 {
		out := t.Clone()
		out.epoch = 0
		return out, nil
	}
	keys := make([][]int32, len(idx))
	want := make([]int32, len(idx))
	for i, ci := range idx {
		code, ok := t.cols[ci].CodeOf(vals[i])
		if !ok {
			return t.gather(nil), nil // the value occurs in no row
		}
		keys[i], want[i] = t.cols[ci].Codes, code
	}
	var rows []int32
rows:
	for r, c := range keys[0] {
		// Most rows fail the first key: keep that compare inline.
		if c != want[0] {
			continue
		}
		for k := 1; k < len(keys); k++ {
			if keys[k][r] != want[k] {
				continue rows
			}
		}
		rows = append(rows, int32(r))
	}
	return t.gather(rows), nil
}

// parts presents the table to the parts kernels (ckernels.go) as one
// solo dense part, or none when the table is empty.
func (t *Table) parts(gIdx []int, aCols []aggCol) []*compPart {
	if t.n == 0 {
		return nil
	}
	p := densePart(t, gIdx, aCols)
	p.solo = true
	return []*compPart{p}
}

// CountDistinct counts the distinct combinations of the named columns.
// Distinctness is AppendKey equality — the same classes the dictionary
// codes identify — so the parts kernel counts codes: O(1) per column
// already encoded, one grouping pass for multi-column sets. No columns
// count one combination in a non-empty table.
func (t *Table) CountDistinct(cols []string) (int, error) {
	idx, err := t.schema.Indices(cols)
	if err != nil {
		return 0, err
	}
	if len(idx) > 0 && t.n > 0 {
		return countDistinctParts(t.parts(idx, nil), len(idx)), nil
	}
	return min(t.n, 1), nil
}

// SortBy sorts the table in place by the given columns ascending (using
// value.Compare ordering). The sort is stable; the columns are rebuilt
// in the sorted row order.
func (t *Table) SortBy(cols []string) error {
	perm, err := t.sortPerm(cols)
	if err != nil {
		return err
	}
	t.cols = t.gather(perm).cols
	t.epoch++
	t.rewrite = t.epoch
	return nil
}

// sortPerm returns the row order that stably sorts t by cols. The
// columns' Compare ranks order exactly like value.Compare, so the sort
// compares integers.
func (t *Table) sortPerm(cols []string) ([]int32, error) {
	idx, err := t.schema.Indices(cols)
	if err != nil {
		return nil, err
	}
	ranks := make([][]int32, len(idx))
	for k, ci := range idx {
		ranks[k], _ = t.cols[ci].RankCodes()
	}
	perm := t.allRows()
	sort.SliceStable(perm, func(a, b int) bool {
		return lessOn(ranks, perm[a], perm[b])
	})
	return perm, nil
}

// String renders the table as a small ASCII grid, for debugging and
// example output.
func (t *Table) String() string {
	var sb strings.Builder
	for i, c := range t.schema {
		if i > 0 {
			sb.WriteString(" | ")
		}
		sb.WriteString(c.Name)
	}
	sb.WriteByte('\n')
	for r := 0; r < t.n; r++ {
		for i, c := range t.cols {
			if i > 0 {
				sb.WriteString(" | ")
			}
			sb.WriteString(c.Value(r).String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
