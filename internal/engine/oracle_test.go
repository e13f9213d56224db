package engine

import (
	"cape/internal/oracle"
	"cape/internal/value"
)

// oracleRel is the reference every differential test in this package
// holds the kernels to: a Relation whose five operators internal/oracle
// answers literally over a fixed slice of rows. Only the output schemas
// come from the engine's own planning.
type oracleRel struct {
	schema Schema
	rows   []value.Tuple
}

// oracleOf is the reference over t's current rows.
func oracleOf(t *Table) *oracleRel { return &oracleRel{schema: t.Schema(), rows: t.Rows()} }

func (o *oracleRel) Schema() Schema { return o.schema }
func (o *oracleRel) NumRows() int   { return len(o.rows) }
func (o *oracleRel) Epoch() uint64  { return 0 }

func tableOf(sch Schema, rows []value.Tuple) *Table {
	out := NewTable(sch)
	out.rows = rows
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

func (o *oracleRel) GroupBy(groupCols []string, aggs []AggSpec) (*Table, error) {
	gIdx, aCols, sch, err := groupPlan(o.schema, groupCols, aggs)
	if err != nil {
		return nil, err
	}
	return tableOf(sch, oracle.GroupBy(o.rows, gIdx, oracleAggs(aCols))), nil
}

func (o *oracleRel) SelectEq(cols []string, vals value.Tuple) (*Table, error) {
	idx, err := o.schema.Indices(cols)
	if err != nil {
		return nil, err
	}
	return tableOf(o.schema, oracle.SelectEq(o.rows, idx, vals)), nil
}

func (o *oracleRel) DistinctProject(cols []string) (*Table, error) {
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

func (o *oracleRel) Cube(cols []string, minSize, maxSize int, aggs []AggSpec) (*Table, error) {
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

var _ Relation = (*oracleRel)(nil)
