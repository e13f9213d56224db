package engine

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"cape/internal/value"
)

// Columnar is a lazily built column-oriented view of a Table. Each column
// is dictionary-encoded once — int32 codes over a dictionary of distinct
// values — alongside flat float64/int64 buffers and a null bitmap, so the
// hot operators (GroupBy, SelectEq, CountDistinct, CUBE) and downstream
// consumers (pattern fitting, explanation scoring) run tight loops over
// machine types instead of boxed value.V dispatch.
//
// The view is cached on the Table and invalidated by mutation (Append,
// SortBy), like hash indexes. Columns materialize on first use, one at a
// time, so a query touching two of ten columns never pays for the other
// eight. All methods are safe for concurrent use; the underlying rows
// must not be mutated while a Columnar is live (the usual Table
// contract).
type Columnar struct {
	rows  []value.Tuple
	mu    sync.Mutex // serializes column builds (misses only)
	cols  []atomic.Pointer[Col]
	flats []atomic.Pointer[Col]
}

// NumRows reports the number of rows in the snapshot.
func (c *Columnar) NumRows() int { return len(c.rows) }

// Col returns the fully encoded view of column ci (schema position) —
// flat buffers plus dictionary codes — building it on first use.
// Concurrent callers block on one build; different columns build
// independently.
func (c *Columnar) Col(ci int) *Col {
	if col := c.cols[ci].Load(); col != nil {
		return col
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if col := c.cols[ci].Load(); col != nil {
		return col
	}
	col := buildCol(c.rows, ci, true)
	c.cols[ci].Store(col)
	return col
}

// FlatCol returns at least the flat buffers (Kinds, Num, F64, I64, null
// bitmap) of column ci, skipping the dictionary encode — the cheap tier
// for consumers that only read values, like aggregation and regression
// fitting. If the full view already exists it is returned instead; a
// flat view never replaces a full one.
func (c *Columnar) FlatCol(ci int) *Col {
	if col := c.cols[ci].Load(); col != nil {
		return col
	}
	if col := c.flats[ci].Load(); col != nil {
		return col
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if col := c.cols[ci].Load(); col != nil {
		return col
	}
	if col := c.flats[ci].Load(); col != nil {
		return col
	}
	col := buildCol(c.rows, ci, false)
	c.flats[ci].Store(col)
	return col
}

// Col is one dictionary-encoded column. Codes identify equality classes
// under value.V's canonical AppendKey encoding — exactly the classes
// GroupBy, CountDistinct and DistinctProject group by — so kernels
// compare int32s where the row path compared encoded byte strings.
//
// The exported buffers are views shared with the cache: callers must not
// mutate them.
type Col struct {
	// Kinds holds the value kind of every row (value.Null marks NULLs).
	Kinds []value.Kind
	// Num reports, per row, whether the value is numeric (Int or Float).
	Num []bool
	// F64 holds the numeric value per row as float64 (0 where !Num).
	F64 []float64
	// I64 holds the payload of Int rows (0 elsewhere). It is nil when the
	// column contains no Int values.
	I64 []int64
	// Codes holds the per-row dictionary code. Codes are dense, assigned
	// in first-appearance order: Dict[Codes[i]] is row i's value.
	Codes []int32
	// Dict holds one representative value per code, in code order.
	Dict []value.V

	lookup    map[string]int32 // AppendKey bytes → code
	nulls     []uint64         // null bitmap, bit i ↔ row i
	nullCount int
	hasNaN    bool
	hasFloat  bool // any Float row: a Sum over the column may read sumF

	// ranks maps each code to its dense value.Compare rank (NULL first,
	// numerics by magnitude, strings last; Compare-equal codes — e.g.
	// Int(1) vs Float(1) — share a rank). nil when the column contains
	// NaN, whose reflexively-unequal comparisons break the ordering.
	ranks    []int32
	numRanks int32
}

func buildCol(rows []value.Tuple, ci int, withDict bool) *Col {
	n := len(rows)
	c := &Col{
		Kinds: make([]value.Kind, n),
		Num:   make([]bool, n),
		F64:   make([]float64, n),
		nulls: make([]uint64, (n+63)/64),
	}
	if withDict {
		c.Codes = make([]int32, n)
		c.Dict = make([]value.V, 0, 16)
		c.lookup = make(map[string]int32, 16)
	}
	var keyBuf []byte
	for i, row := range rows {
		v := row[ci]
		k := v.Kind()
		c.Kinds[i] = k
		switch k {
		case value.Int:
			if c.I64 == nil {
				c.I64 = make([]int64, n)
			}
			iv := v.Int()
			c.I64[i] = iv
			c.F64[i] = float64(iv)
			c.Num[i] = true
		case value.Float:
			f := v.Float()
			c.F64[i] = f
			c.Num[i] = true
			c.hasFloat = true
			if math.IsNaN(f) {
				c.hasNaN = true
			}
		case value.Null:
			c.nulls[i>>6] |= 1 << uint(i&63)
			c.nullCount++
		}
		if withDict {
			keyBuf = v.AppendKey(keyBuf[:0])
			code, ok := c.lookup[string(keyBuf)]
			if !ok {
				code = int32(len(c.Dict))
				c.lookup[string(keyBuf)] = code
				c.Dict = append(c.Dict, v)
			}
			c.Codes[i] = code
		}
	}
	if withDict && !c.hasNaN {
		c.buildRanks()
	}
	return c
}

// buildRanks sorts the dictionary under value.Compare and assigns each
// code a dense rank. Distinct codes may share a rank: Int(1)/Float(1)
// are AppendKey-distinct yet Compare-equal, as are integers past 2^53
// that collide after float rounding. Compare over non-NaN values orders
// by (kind class, float value | string), a total preorder, so the sort
// is well-defined.
func (c *Col) buildRanks() {
	d := len(c.Dict)
	order := make([]int32, d)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		return value.Compare(c.Dict[order[a]], c.Dict[order[b]]) < 0
	})
	c.ranks = make([]int32, d)
	rank := int32(0)
	for i, code := range order {
		if i > 0 && value.Compare(c.Dict[order[i-1]], c.Dict[code]) != 0 {
			rank++
		}
		c.ranks[code] = rank
	}
	if d > 0 {
		c.numRanks = rank + 1
	}
}

// CodeOf returns the dictionary code of v, or ok=false when v does not
// occur in the column (under AppendKey equality). Only meaningful on
// full views obtained via Col; flat views (FlatCol) have no dictionary
// and report every value absent.
func (c *Col) CodeOf(v value.V) (int32, bool) {
	var buf [24]byte
	key := v.AppendKey(buf[:0])
	code, ok := c.lookup[string(key)]
	return code, ok
}

// EqCode resolves an equality probe against the dictionary for use in
// value.Equal-semantics scans. When divergent is true, code comparison
// cannot answer value.Equal for this probe (v is NaN or past the
// float-exact integer range, or the column contains NaN) and the caller
// must fall back to a boxed row scan. Otherwise ok reports whether any
// row equals v, and on ok the rows matching v under value.Equal are
// exactly the rows whose Codes entry equals code.
func (c *Col) EqCode(v value.V) (code int32, ok, divergent bool) {
	if eqDivergent(v, c.hasNaN) {
		return 0, false, true
	}
	code, ok = c.CodeOf(v)
	return code, ok, false
}

// Null reports whether row i is NULL, via the null bitmap.
func (c *Col) Null(i int) bool { return c.nulls[i>>6]>>uint(i&63)&1 != 0 }

// NullCount reports how many rows are NULL.
func (c *Col) NullCount() int { return c.nullCount }

// HasNaN reports whether any Float row is NaN. NaN breaks the
// correspondence between code equality and value.Equal (NaN compares
// equal to every numeric), so kernels that must reproduce row-path
// Compare semantics fall back when it is set.
func (c *Col) HasNaN() bool { return c.hasNaN }

// RankCodes returns a fresh per-row vector of dense value.Compare ranks
// (the SortCodes encoding) derived from the dictionary, plus the rank
// count. ok is false when the column contains NaN and no total order
// exists; callers then fall back to the row-at-a-time encoder.
func (c *Col) RankCodes() ([]int32, int32, bool) {
	if c.ranks == nil {
		return nil, 0, false
	}
	out := make([]int32, len(c.Codes))
	for i, code := range c.Codes {
		out[i] = c.ranks[code]
	}
	return out, c.numRanks, true
}

// maxExactFloat bounds the range in which AppendKey equality classes
// and value.Compare equality classes coincide for numerics: at
// magnitude ≥ 2^53, AppendKey-distinct integers can round to the same
// float and become Compare-equal.
const maxExactFloat = float64(1 << 53)

// eqDivergent reports whether an equality probe for v against a column
// can distinguish AppendKey matching (dictionary codes, index buckets)
// from value.Equal matching (the row-scan reference): v is NaN, v sits
// past the float-exact integer range, or the column itself contains NaN
// (which value.Equal matches against every numeric probe).
func eqDivergent(v value.V, colHasNaN bool) bool {
	f, numeric := v.AsFloat()
	if !numeric {
		return false
	}
	return math.IsNaN(f) || f >= maxExactFloat || f <= -maxExactFloat || colHasNaN
}

// Columns returns the table's columnar view, building the (empty) shell
// on first use. The same Columnar is returned until the table is
// mutated, so repeated operators — and concurrent readers — share one
// encoding per column.
func (t *Table) Columns() *Columnar {
	if c := t.cols.Load(); c != nil {
		return c
	}
	t.colsMu.Lock()
	defer t.colsMu.Unlock()
	if c := t.cols.Load(); c != nil {
		return c
	}
	c := &Columnar{
		rows:  t.rows,
		cols:  make([]atomic.Pointer[Col], len(t.schema)),
		flats: make([]atomic.Pointer[Col], len(t.schema)),
	}
	t.cols.Store(c)
	return c
}

// invalidateDerived drops caches derived from row storage (hash indexes
// and the columnar view) and advances the epoch; every reordering
// mutation of t.rows must call it. Appends instead go through
// extendDerived, which grows the caches in place.
func (t *Table) invalidateDerived() {
	t.epoch++
	t.indexes = nil
	t.cols.Store(nil)
}

// ForceRowPath toggles the row-oriented reference implementations of
// GroupBy, SelectEq, CountDistinct and DistinctProject, bypassing the
// columnar kernels. The flag propagates to derived tables (Select,
// Project, GroupBy results, clones, ...), so forcing it on a source
// table keeps an entire query pipeline on the reference paths. It
// exists so differential tests and benchmarks can pin the vectorized
// paths to the reference behaviour; production code never sets it.
// Returns t for chaining.
func (t *Table) ForceRowPath(on bool) *Table {
	t.rowOnly = on
	return t
}

// RowPathForced reports whether ForceRowPath is set (directly or via
// propagation), letting consumers outside the engine honour the
// reference-path request in their own columnar fast paths.
func (t *Table) RowPathForced() bool { return t.rowOnly }
