package engine

import (
	"slices"
	"sort"
	"strings"

	"cape/internal/oracle"
	"cape/internal/value"
)

// oracleRel is the reference every differential test in this package
// holds the kernels to: the five operators answered literally by
// internal/oracle over a fixed slice of rows. The rows are the ones the
// test generated, never rows read back from a table under test — that
// would hide a bug on the table's write side — and the answers stay
// rows (refTable) rather than passing through a Table. Only the output
// schemas come from the engine's own planning.
type oracleRel struct {
	schema Schema
	rows   []value.Tuple
}

// oracleOf is the reference over rows of schema sch.
func oracleOf(sch Schema, rows []value.Tuple) *oracleRel {
	return &oracleRel{schema: sch, rows: rows}
}

func (o *oracleRel) Schema() Schema { return o.schema }
func (o *oracleRel) NumRows() int   { return len(o.rows) }

// refTable is one oracle answer: a schema and its rows.
type refTable struct {
	schema Schema
	rows   []value.Tuple
}

func tableOf(sch Schema, rows []value.Tuple) *refTable { return &refTable{schema: sch, rows: rows} }

func (r *refTable) Schema() Schema        { return r.schema }
func (r *refTable) NumRows() int          { return len(r.rows) }
func (r *refTable) Row(i int) value.Tuple { return r.rows[i] }
func (r *refTable) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(r.schema.Names(), " | ") + "\n")
	for _, row := range r.rows {
		sb.WriteString(row.String() + "\n")
	}
	return sb.String()
}

// genTable is a table a test generated, together with the rows it was
// generated from; its oracle reads those rows.
type genTable struct {
	*Table
	rows []value.Tuple
}

// newGenTable loads rows into a new table of schema sch.
func newGenTable(sch Schema, rows []value.Tuple) genTable {
	tab := NewTable(sch)
	if err := tab.AppendRows(rows); err != nil {
		panic(err)
	}
	return genTable{tab, rows}
}

func (g genTable) oracle() *oracleRel { return oracleOf(g.Schema(), g.rows) }

// sortedRows is the literal definition of SortBy: rows stably sorted
// by the columns idx under value.Compare.
func sortedRows(rows []value.Tuple, idx []int) []value.Tuple {
	out := slices.Clone(rows)
	sort.SliceStable(out, func(a, b int) bool {
		for _, ci := range idx {
			if c := value.Compare(out[a][ci], out[b][ci]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

var oracleFuncs = map[AggFunc]oracle.Func{
	Count: oracle.Count, Sum: oracle.Sum, Avg: oracle.Avg, Min: oracle.Min, Max: oracle.Max,
}

func oracleAggs(aCols []aggCol) []oracle.Agg {
	out := make([]oracle.Agg, len(aCols))
	for i, ac := range aCols {
		out[i] = oracle.Agg{Func: oracleFuncs[ac.spec.Func], Arg: ac.idx}
	}
	return out
}

func (o *oracleRel) GroupBy(groupCols []string, aggs []AggSpec) (*refTable, error) {
	gIdx, aCols, sch, err := groupPlan(o.schema, groupCols, aggs)
	if err != nil {
		return nil, err
	}
	return tableOf(sch, oracle.GroupBy(o.rows, gIdx, oracleAggs(aCols))), nil
}

func (o *oracleRel) SelectEq(cols []string, vals value.Tuple) (*refTable, error) {
	idx, err := o.schema.Indices(cols)
	if err != nil {
		return nil, err
	}
	return tableOf(o.schema, oracle.SelectEq(o.rows, idx, vals)), nil
}

func (o *oracleRel) DistinctProject(cols []string) (*refTable, error) {
	idx, _, sch, err := groupPlan(o.schema, cols, nil)
	if err != nil {
		return nil, err
	}
	return tableOf(sch, oracle.DistinctProject(o.rows, idx)), nil
}

func (o *oracleRel) CountDistinct(cols []string) (int, error) {
	idx, err := o.schema.Indices(cols)
	if err != nil {
		return 0, err
	}
	return oracle.CountDistinct(o.rows, idx), nil
}

func (o *oracleRel) Cube(cols []string, minSize, maxSize int, aggs []AggSpec) (*refTable, error) {
	idx, aCols, _, err := groupPlan(o.schema, cols, aggs)
	if err != nil {
		return nil, err
	}
	var sch Schema
	for _, c := range cols {
		sch = append(sch, Column{Name: c, Kind: value.Null})
	}
	sch = append(sch, Column{Name: GroupingColumn, Kind: value.Int})
	for _, a := range aggs {
		sch = append(sch, Column{Name: a.String(), Kind: value.Null})
	}
	return tableOf(sch, oracle.Cube(o.rows, idx, minSize, maxSize, oracleAggs(aCols))), nil
}
