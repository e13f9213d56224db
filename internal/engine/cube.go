package engine

import (
	"fmt"

	"cape/internal/value"
)

// GroupingColumn is the name of the bitmask column Cube adds to its
// output. Bit i is set when cols[i] is rolled up (not part of the
// grouping), mirroring SQL's GROUPING() construct that the paper uses to
// filter invalid groups out of the cube result.
const GroupingColumn = "grouping"

// Cube evaluates the aggregation for every subset S of cols with
// minSize <= |S| <= maxSize, returning the union of all those group-by
// results in one table. Rolled-up columns hold NULL; the GroupingColumn
// bitmask distinguishes a genuine NULL group value from a rolled-up
// column. This mirrors the paper's "Using the CUBE BY operator"
// optimization: one (expensive) query whose materialized result serves
// every pattern candidate.
func (t *Table) Cube(cols []string, minSize, maxSize int, aggs []AggSpec) (*Table, error) {
	return cubeOver(t, cols, minSize, maxSize, aggs)
}

// cubeOver is the shared CUBE loop: one GroupBy per subset, results
// unioned with rolled-up columns as NULL plus the grouping bitmask. Any
// Relation serves; each grouping routes through the source's own
// GroupBy dispatch (columnar, compressed, or segment-backed).
func cubeOver(r Relation, cols []string, minSize, maxSize int, aggs []AggSpec) (*Table, error) {
	if minSize < 0 || maxSize > len(cols) || minSize > maxSize {
		return nil, fmt.Errorf("engine: invalid cube size bounds [%d, %d] for %d columns", minSize, maxSize, len(cols))
	}
	if len(cols) > 62 {
		return nil, fmt.Errorf("engine: cube over %d columns exceeds bitmask width", len(cols))
	}
	if _, err := r.Schema().Indices(cols); err != nil {
		return nil, err
	}

	sch := make(Schema, 0, len(cols)+1+len(aggs))
	for _, c := range cols {
		sch = append(sch, Column{Name: c, Kind: value.Null})
	}
	sch = append(sch, Column{Name: GroupingColumn, Kind: value.Int})
	for _, a := range aggs {
		sch = append(sch, Column{Name: a.String(), Kind: value.Null})
	}
	out := NewTable(sch)

	total := uint64(1) << uint(len(cols))
	var masks []uint64
	for mask := uint64(0); mask < total; mask++ {
		if size := popcount(mask); size >= minSize && size <= maxSize {
			masks = append(masks, mask)
		}
	}

	// One GroupBy per subset. The groupings are independent, so they fan
	// across the source's pool (when it has one) and are assembled in
	// mask order — the same output row order the sequential loop builds.
	var pool *Pool
	if pr, ok := r.(pooledRelation); ok {
		pool = pr.queryPool()
	}
	grouped := make([]*Table, len(masks))
	err := pool.ForEach("engine:cube", len(masks), func(mi int) error {
		mask := masks[mi]
		subset := make([]string, 0, popcount(mask))
		for i, c := range cols {
			if mask&(1<<uint(i)) != 0 {
				subset = append(subset, c)
			}
		}
		part, err := r.GroupBy(subset, aggs)
		if err != nil {
			return err
		}
		grouped[mi] = part
		return nil
	})
	if err != nil {
		return nil, err
	}

	for mi, mask := range masks {
		// grouping bitmask: bit i set when cols[i] is rolled up.
		grouping := int64(^mask) & int64(total-1)
		for _, r := range grouped[mi].Rows() {
			row := make(value.Tuple, 0, len(sch))
			si := 0
			for i := range cols {
				if mask&(1<<uint(i)) != 0 {
					row = append(row, r[si])
					si++
				} else {
					row = append(row, value.NewNull())
				}
			}
			row = append(row, value.NewInt(grouping))
			row = append(row, r[si:]...)
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

// CubeSlice extracts from a Cube result the rows belonging to the
// grouping over exactly the columns in subset (in cube-column order),
// returning a table with schema (subset..., aggs...). cols must be the
// same column list that produced the cube.
func CubeSlice(cube *Table, cols, subset []string, aggs []AggSpec) (*Table, error) {
	var mask uint64
	for _, s := range subset {
		found := false
		for i, c := range cols {
			if c == s {
				mask |= 1 << uint(i)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("engine: subset column %q not in cube columns", s)
		}
	}
	total := uint64(1) << uint(len(cols))
	wantGrouping := int64(^mask) & int64(total-1)
	gIdx := cube.Schema().Index(GroupingColumn)
	if gIdx < 0 {
		return nil, fmt.Errorf("engine: table has no %s column", GroupingColumn)
	}

	sch := make(Schema, 0, len(subset)+len(aggs))
	colIdx := make([]int, len(subset))
	for i, s := range subset {
		ci := cube.Schema().Index(s)
		if ci < 0 {
			return nil, fmt.Errorf("engine: cube missing column %q", s)
		}
		colIdx[i] = ci
		sch = append(sch, Column{Name: s, Kind: value.Null})
	}
	aggIdx := make([]int, len(aggs))
	for i, a := range aggs {
		ci := cube.Schema().Index(a.String())
		if ci < 0 {
			return nil, fmt.Errorf("engine: cube missing aggregate column %q", a.String())
		}
		aggIdx[i] = ci
		sch = append(sch, Column{Name: a.String(), Kind: value.Null})
	}

	// The grouping bitmask is an Int column Cube itself wrote; scan its
	// flat int64 buffer instead of unboxing every row. Rows of any other
	// kind (malformed input) still go through Int(), which panics on a
	// non-Int bitmask.
	var gKinds []value.Kind
	var gI64 []int64
	if cube.NumRows() > 0 {
		gcol := cube.Columns().FlatCol(gIdx)
		if gcol.I64 != nil {
			gKinds, gI64 = gcol.Kinds, gcol.I64
		}
	}
	out := NewTable(sch)
	for ri, r := range cube.Rows() {
		if gKinds != nil && gKinds[ri] == value.Int {
			if gI64[ri] != wantGrouping {
				continue
			}
		} else if r[gIdx].Int() != wantGrouping {
			continue
		}
		row := make(value.Tuple, 0, len(sch))
		for _, ci := range colIdx {
			row = append(row, r[ci])
		}
		for _, ci := range aggIdx {
			row = append(row, r[ci])
		}
		out.rows = append(out.rows, row)
	}
	return out, nil
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
