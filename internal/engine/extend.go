package engine

import (
	"math"

	"cape/internal/value"
)

// Appends extend derived structures in place instead of dropping them:
// hash indexes gain bucket entries for the tail rows, and every column of
// the columnar view that has already been built grows its flat buffers,
// null bitmap, and dictionary codes. The results are identical to a
// from-scratch rebuild over the longer table — new dictionary codes are
// assigned in first-appearance order just as buildCol would, index
// buckets keep ascending row order — so consumers cannot observe whether
// a view was built before or after an append. Reordering mutations
// (SortBy) still invalidate, since both structures store row positions.

// extendDerived advances the epoch and extends indexes and the columnar
// view for rows[oldLen:]; every append to t.rows must call it.
func (t *Table) extendDerived(oldLen int) {
	t.epoch++
	if len(t.indexes) > 0 {
		t.extendIndexes(oldLen)
	}
	t.extendColumnar(oldLen)
}

// extendIndexes adds the tail rows to every hash index's buckets.
func (t *Table) extendIndexes(oldLen int) {
	var keyBuf []byte
	for _, idx := range t.indexes {
		sortedIdx, err := t.schema.Indices(idx.cols)
		if err != nil {
			continue // unreachable: the index was built against this schema
		}
		for ri := oldLen; ri < len(t.rows); ri++ {
			row := t.rows[ri]
			keyBuf = keyBuf[:0]
			for i, ci := range sortedIdx {
				v := row[ci]
				if v.Kind() == value.Float && math.IsNaN(v.Float()) {
					idx.hasNaN[i] = true
				}
				keyBuf = v.AppendKey(keyBuf)
			}
			idx.buckets[string(keyBuf)] = append(idx.buckets[string(keyBuf)], ri)
		}
	}
}

// extendColumnar extends every already-built column of the cached
// columnar view for the tail rows. Columns never built stay unbuilt (they
// materialize over the full row slice on first use). The table contract
// — no mutation concurrent with reads — covers the in-place growth.
func (t *Table) extendColumnar(oldLen int) {
	c := t.cols.Load()
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rows = t.rows
	for ci := range c.cols {
		if col := c.cols[ci].Load(); col != nil {
			col.extend(t.rows, ci, oldLen, true)
		}
		if col := c.flats[ci].Load(); col != nil {
			col.extend(t.rows, ci, oldLen, false)
		}
	}
}

// extend grows one built column for rows[oldLen:], reproducing exactly
// what buildCol(rows, ci, withDict) would produce over the full slice.
func (c *Col) extend(rows []value.Tuple, ci, oldLen int, withDict bool) {
	var keyBuf []byte
	dictGrew := false
	hadNaN := c.hasNaN
	for i := oldLen; i < len(rows); i++ {
		v := rows[i][ci]
		k := v.Kind()
		c.Kinds = append(c.Kinds, k)
		var f float64
		num := false
		switch k {
		case value.Int:
			iv := v.Int()
			if c.I64 == nil {
				c.I64 = make([]int64, i, len(rows))
			}
			c.I64 = append(c.I64, iv)
			f = float64(iv)
			num = true
		case value.Float:
			f = v.Float()
			num = true
			c.hasFloat = true
			if math.IsNaN(f) {
				c.hasNaN = true
			}
		case value.Null:
			for len(c.nulls) < (i+64)/64 {
				c.nulls = append(c.nulls, 0)
			}
			c.nulls[i>>6] |= 1 << uint(i&63)
			c.nullCount++
		}
		if c.I64 != nil && k != value.Int {
			c.I64 = append(c.I64, 0)
		}
		c.F64 = append(c.F64, f)
		c.Num = append(c.Num, num)
		if withDict {
			keyBuf = v.AppendKey(keyBuf[:0])
			code, ok := c.lookup[string(keyBuf)]
			if !ok {
				code = int32(len(c.Dict))
				c.lookup[string(keyBuf)] = code
				c.Dict = append(c.Dict, v)
				dictGrew = true
			}
			c.Codes = append(c.Codes, code)
		}
	}
	// The null bitmap always spans every row, even when none of the tail
	// rows is NULL.
	for len(c.nulls) < (len(rows)+63)/64 {
		c.nulls = append(c.nulls, 0)
	}
	if withDict {
		switch {
		case c.hasNaN:
			// NaN breaks the Compare total order; rebuild would skip ranks.
			c.ranks, c.numRanks = nil, 0
		case dictGrew || (!hadNaN && c.ranks == nil):
			c.buildRanks()
		}
	}
}
