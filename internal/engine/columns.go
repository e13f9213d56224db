package engine

import (
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
// The view is cached on the Table, extended in place by appends and
// invalidated by reordering mutations (SortBy). Columns materialize on
// first use, one at a time, so a query touching two of ten columns never
// pays for the other eight. All methods are safe for concurrent use; the
// underlying rows must not be mutated while a Columnar is live (the usual
// Table contract).
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
// compare int32s instead of encoded byte strings.
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
	hasFloat  bool // any Float row: a Sum over the column may read sumF

	// ranks maps each code to its value.Compare rank (NULL first,
	// numerics by value with NaN last, strings last). Codes are exactly
	// the Compare equality classes, so the ranks are a permutation of
	// the codes.
	ranks []int32
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
	if withDict {
		c.buildRanks()
	}
	return c
}

// buildRanks sorts the dictionary under value.Compare and assigns each
// code its position in that order. Dictionary values are pairwise
// AppendKey-distinct, hence pairwise Compare-distinct, so no two codes
// share a rank.
func (c *Col) buildRanks() {
	order := make([]int32, len(c.Dict))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		return value.Compare(c.Dict[order[a]], c.Dict[order[b]]) < 0
	})
	c.ranks = make([]int32, len(order))
	for rank, code := range order {
		c.ranks[code] = int32(rank)
	}
}

// CodeOf returns the dictionary code of v, or ok=false when v does not
// occur in the column. AppendKey equality is value.Equal, so the rows
// equal to v are exactly the rows carrying the code. Only meaningful on
// full views obtained via Col; flat views (FlatCol) have no dictionary
// and report every value absent.
func (c *Col) CodeOf(v value.V) (int32, bool) {
	var buf [24]byte
	key := v.AppendKey(buf[:0])
	code, ok := c.lookup[string(key)]
	return code, ok
}

// Null reports whether row i is NULL, via the null bitmap.
func (c *Col) Null(i int) bool { return c.nulls[i>>6]>>uint(i&63)&1 != 0 }

// NullCount reports how many rows are NULL.
func (c *Col) NullCount() int { return c.nullCount }

// RankCodes returns a fresh per-row vector of dense value.Compare ranks
// (the SortCodes encoding) derived from the dictionary, plus the rank
// count.
func (c *Col) RankCodes() ([]int32, int32) {
	out := make([]int32, len(c.Codes))
	for i, code := range c.Codes {
		out[i] = c.ranks[code]
	}
	return out, int32(len(c.ranks))
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

// invalidateDerived drops the columnar view derived from row storage and
// advances the epoch; every reordering mutation of t.rows must call it.
// Appends instead go through extendDerived, which grows the view in
// place.
func (t *Table) invalidateDerived() {
	t.epoch++
	t.cols.Store(nil)
}
