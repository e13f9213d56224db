package engine

import (
	"math"
	"slices"
	"sort"
	"sync"

	"cape/internal/value"
)

// Col is one column of a Table, and the table's only storage for it:
// the exact value of every row as its kind plus flat float64/int64
// buffers and a null bitmap, and a dictionary encoding — int32 codes
// over a dictionary of distinct values. The operator kernels (GroupBy,
// SelectEq, CountDistinct) and downstream consumers (pattern fitting,
// explanation scoring) run tight loops over these machine-typed buffers
// instead of boxed value.V dispatch.
//
// Codes identify equality classes under value.V's canonical AppendKey
// encoding — exactly the classes GroupBy and CountDistinct group by —
// so kernels compare int32s instead of encoded byte strings. A class
// can hold values of different kinds or bits (Int(1) and Float(1), −0.0
// and +0.0, NaNs with different payloads), so a row's exact value comes
// from Kinds/I64/F64 (Value), never from its dictionary representative;
// only strings, whose class is their bytes, read the dictionary.
//
// The exported buffers are views into the table's storage: callers must
// not mutate them. Appends extend them in place, so a column is not safe
// for reads concurrent with a mutation of its table (the Table
// contract); concurrent reads are fine.
type Col struct {
	// Kinds holds the value kind of every row (value.Null marks NULLs).
	Kinds []value.Kind
	// Num reports, per row, whether the value is numeric (Int or Float).
	Num []bool
	// F64 holds the numeric value per row as float64 (0 where !Num); for
	// Float rows it is the exact value, bits included.
	F64 []float64
	// I64 holds the payload of Int rows (0 elsewhere). It is nil when the
	// column contains no Int values.
	I64 []int64
	// Codes holds the per-row dictionary code. Codes are dense, assigned
	// in first-appearance order: Dict[Codes[i]] is value.Equal to row i's
	// value.
	Codes []int32
	// Dict holds one representative value per code, in code order: the
	// first row's value of each class.
	Dict []value.V

	lookup    map[string]int32 // AppendKey bytes → code
	nulls     []uint64         // null bitmap, bit i ↔ row i
	nullCount int
	hasFloat  bool // any Float row: a Sum over the column may read sumF

	// ranks maps each code to its value.Compare rank (NULL first,
	// numerics by value with NaN last, strings last). Codes are exactly
	// the Compare equality classes, so the ranks are a permutation of
	// the codes. They are built on the first RankCodes after the
	// dictionary last grew (appends never re-sort it); ranksMu guards
	// that build against concurrent readers.
	ranksMu sync.Mutex
	ranks   []int32
}

// grow reserves room for n more rows in every buffer, so a batch append
// allocates once per buffer.
func (c *Col) grow(n int) {
	c.Kinds = slices.Grow(c.Kinds, n)
	c.Num = slices.Grow(c.Num, n)
	c.F64 = slices.Grow(c.F64, n)
	c.Codes = slices.Grow(c.Codes, n)
	if c.I64 != nil {
		c.I64 = slices.Grow(c.I64, n)
	}
	c.nulls = slices.Grow(c.nulls, (len(c.Kinds)+n+63)/64-len(c.nulls))
}

// push appends one value, encoding it into the dictionary. key is
// scratch for the value's AppendKey bytes, returned for reuse.
func (c *Col) push(v value.V, key []byte) []byte {
	key = v.AppendKey(key[:0])
	code, ok := c.lookup[string(key)]
	if !ok {
		code = c.addClass(v, key)
	}
	c.pushCode(v, code)
	return key
}

// addClass adds v, whose AppendKey bytes are key, to the dictionary as
// a new class and returns its code.
func (c *Col) addClass(v value.V, key []byte) int32 {
	if c.lookup == nil {
		c.lookup = make(map[string]int32)
	}
	code := int32(len(c.Dict))
	c.lookup[string(key)] = code
	c.Dict = append(c.Dict, v)
	return code
}

// pushCode appends one value whose dictionary code is already known.
func (c *Col) pushCode(v value.V, code int32) {
	i := len(c.Kinds)
	k := v.Kind()
	c.Kinds = append(c.Kinds, k)
	var f float64
	switch k {
	case value.Int:
		if c.I64 == nil {
			c.I64 = make([]int64, i, cap(c.Kinds))
		}
		iv := v.Int()
		c.I64 = append(c.I64, iv)
		f = float64(iv)
	case value.Float:
		f = v.Float()
		c.hasFloat = true
	}
	if c.I64 != nil && k != value.Int {
		c.I64 = append(c.I64, 0)
	}
	c.F64 = append(c.F64, f)
	c.Num = append(c.Num, k == value.Int || k == value.Float)
	if i&63 == 0 {
		c.nulls = append(c.nulls, 0)
	}
	if k == value.Null {
		c.nulls[i>>6] |= 1 << uint(i&63)
		c.nullCount++
	}
	c.Codes = append(c.Codes, code)
}

// Value returns row i's exact value: kind and payload bits as appended.
func (c *Col) Value(i int) value.V {
	switch c.Kinds[i] {
	case value.Int:
		return value.NewInt(c.I64[i])
	case value.Float:
		return value.NewFloat(c.F64[i])
	case value.String:
		return c.Dict[c.Codes[i]]
	}
	return value.NewNull()
}

// gather returns a new column holding rows idx of c, in that order.
// Classes are renumbered in first-appearance order through c's codes,
// so each is keyed once, not once per row.
func (c *Col) gather(idx []int32) *Col {
	out := &Col{}
	out.grow(len(idx))
	codes := make([]int32, len(c.Dict)) // c's code → out's code + 1; 0: unseen
	var key []byte
	for _, r := range idx {
		v := c.Value(int(r))
		code := &codes[c.Codes[r]]
		if *code == 0 {
			key = v.AppendKey(key[:0])
			*code = out.addClass(v, key) + 1
		}
		out.pushCode(v, *code-1)
	}
	return out
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
// equal to v are exactly the rows carrying the code.
func (c *Col) CodeOf(v value.V) (int32, bool) {
	var buf [24]byte
	key := v.AppendKey(buf[:0])
	code, ok := c.lookup[string(key)]
	return code, ok
}

// canonical reports whether every row holds its class's dictionary
// representative exactly — what a sealed segment reads the row back as.
// Classes join values of one kind only when those are equal integers or
// strings, so a row differs from its representative only in kind or in
// float bits.
func (c *Col) canonical() bool {
	for i, code := range c.Codes {
		d := c.Dict[code]
		if c.Kinds[i] != d.Kind() ||
			c.Kinds[i] == value.Float && math.Float64bits(c.F64[i]) != math.Float64bits(d.Float()) {
			return false
		}
	}
	return true
}

// Null reports whether row i is NULL, via the null bitmap.
func (c *Col) Null(i int) bool { return c.nulls[i>>6]>>uint(i&63)&1 != 0 }

// NullCount reports how many rows are NULL.
func (c *Col) NullCount() int { return c.nullCount }

// RankCodes returns a fresh per-row vector of dense value.Compare ranks
// (the SortCodes encoding) derived from the dictionary, plus the rank
// count. The dictionary is sorted here, once per growth of it.
func (c *Col) RankCodes() ([]int32, int32) {
	c.ranksMu.Lock()
	if len(c.ranks) != len(c.Dict) {
		c.buildRanks()
	}
	ranks := c.ranks
	c.ranksMu.Unlock()
	out := make([]int32, len(c.Codes))
	for i, code := range c.Codes {
		out[i] = ranks[code]
	}
	return out, int32(len(ranks))
}
