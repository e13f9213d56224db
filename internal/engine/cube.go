package engine

import (
	"fmt"
	"math/bits"

	"cape/internal/value"
)

// GroupingColumn is the name of the bitmask column Cube adds to its
// output. Bit i is set when cols[i] is rolled up (not part of the
// grouping), mirroring SQL's GROUPING() construct that the paper uses to
// filter invalid groups out of the cube result.
const GroupingColumn = "grouping"

// Cube evaluates the aggregation over r for every subset S of cols with
// minSize <= |S| <= maxSize, returning the union of all those group-by
// results in one table. Rolled-up columns hold NULL; the GroupingColumn
// bitmask distinguishes a genuine NULL group value from a rolled-up
// column. This mirrors the paper's "Using the CUBE BY operator"
// optimization: one (expensive) query whose materialized result serves
// every pattern candidate. Each grouping is one r.GroupBy; the
// groupings fan across pool (nil runs them in turn) and are assembled
// in mask order, so the result is byte-identical at any pool width.
func Cube(r Relation, pool *Pool, cols []string, minSize, maxSize int, aggs []AggSpec) (*Table, error) {
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
		if size := bits.OnesCount64(mask); size >= minSize && size <= maxSize {
			masks = append(masks, mask)
		}
	}

	grouped := make([]*Table, len(masks))
	err := pool.ForEach("engine:cube", len(masks), func(mi int) error {
		mask := masks[mi]
		subset := make([]string, 0, bits.OnesCount64(mask))
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

	row := make(value.Tuple, len(sch))
	for mi, mask := range masks {
		// grouping bitmask: bit i set when cols[i] is rolled up.
		grouping := value.NewInt(int64(^mask) & int64(total-1))
		g := grouped[mi]
		for r := 0; r < g.NumRows(); r++ {
			si := 0
			for i := range cols {
				row[i] = value.NewNull()
				if mask&(1<<uint(i)) != 0 {
					row[i] = g.cols[si].Value(r)
					si++
				}
			}
			row[len(cols)] = grouping
			for ai := range aggs {
				row[len(cols)+1+ai] = g.cols[si+ai].Value(r)
			}
			out.push(row)
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

	// The grouping bitmask is an Int column Cube itself wrote; Int()
	// panics on a non-Int bitmask (malformed input).
	var rows []int32
	for r := 0; r < cube.n; r++ {
		if cube.cols[gIdx].Value(r).Int() == wantGrouping {
			rows = append(rows, int32(r))
		}
	}
	out := &Table{schema: sch, n: len(rows)}
	for _, ci := range append(colIdx, aggIdx...) {
		out.cols = append(out.cols, cube.cols[ci].gather(rows))
	}
	return out, nil
}
