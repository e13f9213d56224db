package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"cape/internal/value"
)

// Table is an in-memory relation. Rows are the primary storage and the
// compatibility API (Row, Rows, value.Tuple); a columnar view with
// dictionary-encoded columns materializes lazily on top of them (see
// Columnar) and feeds the vectorized operator kernels. The table is not
// safe for concurrent mutation; concurrent reads are fine.
type Table struct {
	schema Schema
	rows   []value.Tuple
	// epoch counts mutations (Append, AppendRows, SortBy). Consumers that
	// cache anything derived from the table — explanation caches, mined
	// pattern sets, persisted stores — record the epoch they saw and
	// compare it later to detect staleness instead of guessing.
	epoch uint64
	// cols caches the columnar view; extended in place by appends,
	// invalidated by reordering mutations. colsMu serializes its creation.
	cols   atomic.Pointer[Columnar]
	colsMu sync.Mutex
	// rowOnly forces the row-oriented reference paths (ForceRowPath).
	rowOnly bool
	// pool, when set, lets the compressed kernels fan morsels across a
	// shared worker pool (SetPool). Stored atomically so queries running
	// on pool workers can read it without racing a SetPool.
	pool atomic.Pointer[Pool]
}

// NewTable creates an empty table with the given schema.
func NewTable(schema Schema) *Table {
	return &Table{schema: schema.Clone()}
}

// Schema returns the table's schema (callers must not mutate it).
func (t *Table) Schema() Schema { return t.schema }

// NumRows reports the number of rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Row returns row i (callers must not mutate it).
func (t *Table) Row(i int) value.Tuple { return t.rows[i] }

// Rows returns the backing row slice (callers must not mutate it).
func (t *Table) Rows() []value.Tuple { return t.rows }

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

// SetPool attaches a worker pool for the compressed query kernels to
// fan morsels across (nil restores sequential execution). Results are
// byte-identical at any pool width; see morsel.go.
func (t *Table) SetPool(p *Pool) { t.pool.Store(p) }

func (t *Table) queryPool() *Pool { return t.pool.Load() }

// validateRow checks one row against the schema: matching arity, and each
// value matching the column kind unless the column is untyped or the
// value is NULL.
func (t *Table) validateRow(row value.Tuple) error {
	return t.schema.ValidateRow(row)
}

// Append adds a row. The arity must match the schema, and each value must
// match the column kind unless the column is untyped or the value is NULL.
// The columnar view is extended in place for the new row, so an append
// costs O(encoded columns), not a rebuild.
func (t *Table) Append(row value.Tuple) error {
	if err := t.validateRow(row); err != nil {
		return err
	}
	oldLen := len(t.rows)
	t.rows = append(t.rows, row)
	t.extendDerived(oldLen)
	return nil
}

// AppendRows appends a batch of rows atomically: every row is validated
// before any is appended, so a bad row in the middle of a batch leaves
// the table untouched. The columnar view is extended in place once for
// the whole batch, and the epoch advances by exactly one.
func (t *Table) AppendRows(rows []value.Tuple) error {
	for i, row := range rows {
		if err := t.validateRow(row); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	if len(rows) == 0 {
		return nil
	}
	oldLen := len(t.rows)
	t.rows = append(t.rows, rows...)
	t.extendDerived(oldLen)
	return nil
}

// MustAppend is Append that panics on error; intended for tests and
// generators that construct rows programmatically.
func (t *Table) MustAppend(row value.Tuple) {
	if err := t.Append(row); err != nil {
		panic(err)
	}
}

// Clone returns a deep copy of the table (rows are cloned). The clone
// carries the source's epoch, so staleness checks against a snapshot
// taken before cloning still line up.
func (t *Table) Clone() *Table {
	out := NewTable(t.schema)
	out.rowOnly = t.rowOnly
	out.epoch = t.epoch
	out.rows = make([]value.Tuple, len(t.rows))
	for i, r := range t.rows {
		out.rows[i] = r.Clone()
	}
	return out
}

// Select returns the rows satisfying pred, sharing row storage with t.
func (t *Table) Select(pred func(value.Tuple) bool) *Table {
	out := NewTable(t.schema)
	out.rowOnly = t.rowOnly
	for _, r := range t.rows {
		if pred(r) {
			out.rows = append(out.rows, r)
		}
	}
	return out
}

// SelectEq returns the rows whose values in cols equal vals positionally
// under value.Equal. The parts kernel scans dictionary codes; the row
// scan is the ForceRowPath reference.
func (t *Table) SelectEq(cols []string, vals value.Tuple) (*Table, error) {
	idx, err := t.schema.Indices(cols)
	if err != nil {
		return nil, err
	}
	if len(vals) != len(cols) {
		return nil, fmt.Errorf("engine: SelectEq got %d values for %d columns", len(vals), len(cols))
	}
	out := NewTable(t.schema)
	out.rowOnly = t.rowOnly
	if !t.rowOnly && len(idx) > 0 && len(t.rows) > 0 {
		parts := t.parts(idx, nil)
		if want := selectEqPlanParts(parts, vals)[0]; want != nil { // nil: some probed value is absent, no rows
			rows := t.rows
			selectEqPart(parts[0], want, func(lo, hi int32) {
				out.rows = append(out.rows, rows[lo:hi]...)
			})
		}
		return out, nil
	}
	for _, r := range t.rows {
		match := true
		for i, ci := range idx {
			if !value.Equal(r[ci], vals[i]) {
				match = false
				break
			}
		}
		if match {
			out.rows = append(out.rows, r)
		}
	}
	return out, nil
}

// parts presents the table to the parts kernels (ckernels.go) as one
// solo dense part, or none when the table is empty.
func (t *Table) parts(gIdx []int, aCols []aggCol) []*compPart {
	if len(t.rows) == 0 {
		return nil
	}
	p := densePart(t, gIdx, aCols)
	p.solo = true
	return []*compPart{p}
}

// Project returns a table with only the named columns, preserving
// duplicates and row order.
func (t *Table) Project(cols []string) (*Table, error) {
	idx, err := t.schema.Indices(cols)
	if err != nil {
		return nil, err
	}
	sch := make(Schema, len(idx))
	for i, ci := range idx {
		sch[i] = t.schema[ci]
	}
	out := NewTable(sch)
	out.rowOnly = t.rowOnly
	out.rows = make([]value.Tuple, len(t.rows))
	for ri, r := range t.rows {
		row := make(value.Tuple, len(idx))
		for i, ci := range idx {
			row[i] = r[ci]
		}
		out.rows[ri] = row
	}
	return out, nil
}

// DistinctProject returns the distinct combinations of the named columns,
// in first-appearance order.
func (t *Table) DistinctProject(cols []string) (*Table, error) {
	idx, err := t.schema.Indices(cols)
	if err != nil {
		return nil, err
	}
	sch := make(Schema, len(idx))
	for i, ci := range idx {
		sch[i] = t.schema[ci]
	}
	if !t.rowOnly && len(idx) > 0 && len(t.rows) > 0 {
		return distinctParts(t.parts(idx, nil), sch), nil
	}
	out := NewTable(sch)
	out.rowOnly = t.rowOnly
	seen := make(map[string]struct{})
	var keyBuf []byte
	for _, r := range t.rows {
		keyBuf = keyBuf[:0]
		for _, ci := range idx {
			keyBuf = r[ci].AppendKey(keyBuf)
		}
		if _, dup := seen[string(keyBuf)]; dup {
			continue
		}
		seen[string(keyBuf)] = struct{}{}
		row := make(value.Tuple, len(idx))
		for i, ci := range idx {
			row[i] = r[ci]
		}
		out.rows = append(out.rows, row)
	}
	return out, nil
}

// CountDistinct counts the distinct combinations of the named columns.
// Distinctness is AppendKey equality — the same classes the dictionary
// codes identify — so the parts kernel counts codes: O(1) per column
// already encoded, one grouping pass for multi-column sets.
func (t *Table) CountDistinct(cols []string) (int, error) {
	idx, err := t.schema.Indices(cols)
	if err != nil {
		return 0, err
	}
	if !t.rowOnly && len(idx) > 0 && len(t.rows) > 0 {
		return countDistinctParts(t.parts(idx, nil), len(idx)), nil
	}
	seen := make(map[string]struct{})
	var keyBuf []byte
	for _, r := range t.rows {
		keyBuf = keyBuf[:0]
		for _, ci := range idx {
			keyBuf = r[ci].AppendKey(keyBuf)
		}
		seen[string(keyBuf)] = struct{}{}
	}
	return len(seen), nil
}

// SortBy sorts the table in place by the given columns ascending (using
// value.Compare ordering). The sort is stable. Reordering rows
// invalidates the columnar view, which stores row positions.
func (t *Table) SortBy(cols []string) error {
	idx, err := t.schema.Indices(cols)
	if err != nil {
		return err
	}
	t.invalidateDerived()
	sort.SliceStable(t.rows, func(a, b int) bool {
		ra, rb := t.rows[a], t.rows[b]
		for _, ci := range idx {
			if c := value.Compare(ra[ci], rb[ci]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return nil
}

// Sorted returns a copy of the table sorted by the given columns. The
// copy shares row storage (rows are not mutated by sorting, only
// reordered).
func (t *Table) Sorted(cols []string) (*Table, error) {
	out := NewTable(t.schema)
	out.rowOnly = t.rowOnly
	out.rows = make([]value.Tuple, len(t.rows))
	copy(out.rows, t.rows)
	if err := out.SortBy(cols); err != nil {
		return nil, err
	}
	return out, nil
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
	for _, r := range t.rows {
		for i, v := range r {
			if i > 0 {
				sb.WriteString(" | ")
			}
			sb.WriteString(v.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
