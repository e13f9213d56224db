package sql

import (
	"fmt"
	"sort"

	"cape/internal/engine"
	"cape/internal/value"
)

// Catalog resolves table names for execution.
type Catalog map[string]*engine.Table

// Run parses and executes a query against the catalog.
func Run(query string, cat Catalog) (*engine.Table, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return Exec(stmt, cat)
}

// Exec evaluates a parsed statement against the catalog.
func Exec(stmt *SelectStmt, cat Catalog) (*engine.Table, error) {
	base, ok := cat[stmt.From]
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", stmt.From)
	}

	cur := base
	if stmt.Where != nil {
		pred, err := compilePredicate(stmt.Where, base.Schema())
		if err != nil {
			return nil, err
		}
		cur = cur.Select(pred)
	}

	hasAgg := false
	for _, item := range stmt.Items {
		if item.Agg != nil {
			hasAgg = true
		}
	}

	var out *engine.Table
	var err error
	switch {
	case hasAgg || len(stmt.GroupBy) > 0:
		out, err = execAggregate(stmt, cur)
	default:
		out, err = execProjection(stmt, cur)
	}
	if err != nil {
		return nil, err
	}

	if stmt.Having != nil {
		// HAVING sees the output schema: group columns and aggregate
		// aliases both resolve.
		pred, err := compilePredicate(stmt.Having, out.Schema())
		if err != nil {
			return nil, err
		}
		out = out.Select(pred)
	}
	if len(stmt.OrderBy) > 0 || stmt.Limit >= 0 && out.NumRows() > stmt.Limit {
		rows := out.Rows()
		if err := orderBy(rows, out.Schema(), stmt.OrderBy); err != nil {
			return nil, err
		}
		if stmt.Limit >= 0 && len(rows) > stmt.Limit {
			rows = rows[:stmt.Limit]
		}
		out = engine.NewTable(out.Schema())
		if err := out.AppendRows(rows); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// execProjection handles SELECT [DISTINCT] cols|* FROM ... (no grouping).
func execProjection(stmt *SelectStmt, cur *engine.Table) (*engine.Table, error) {
	var cols []string
	var names []string
	for _, item := range stmt.Items {
		if item.Star {
			if item.Alias != "" {
				return nil, fmt.Errorf("sql: cannot alias *")
			}
			for _, c := range cur.Schema() {
				cols = append(cols, c.Name)
				names = append(names, c.Name)
			}
			continue
		}
		cols = append(cols, item.Column)
		names = append(names, item.OutputName())
	}
	var out *engine.Table
	var err error
	if stmt.Distinct {
		out, err = cur.DistinctProject(cols)
	} else {
		out, err = cur.Project(cols)
	}
	if err != nil {
		return nil, err
	}
	return rename(out, names), nil
}

// execAggregate handles grouped (and global-group) aggregation.
func execAggregate(stmt *SelectStmt, cur *engine.Table) (*engine.Table, error) {
	inGroup := make(map[string]bool, len(stmt.GroupBy))
	for _, g := range stmt.GroupBy {
		inGroup[g] = true
	}
	var aggs []engine.AggSpec
	for _, item := range stmt.Items {
		switch {
		case item.Star:
			return nil, fmt.Errorf("sql: * is not allowed with GROUP BY")
		case item.Agg != nil:
			aggs = append(aggs, item.Agg.Spec())
		default:
			if !inGroup[item.Column] {
				return nil, fmt.Errorf("sql: column %q must appear in GROUP BY or inside an aggregate", item.Column)
			}
		}
	}
	grouped, err := cur.GroupBy(stmt.GroupBy, aggs)
	if err != nil {
		return nil, err
	}

	// Reorder/rename into SELECT order.
	sch := grouped.Schema()
	srcIdx := make([]int, 0, len(stmt.Items))
	names := make([]string, 0, len(stmt.Items))
	aggSeen := 0
	for _, item := range stmt.Items {
		if item.Agg != nil {
			// Aggregates appear after the group columns, in aggs order;
			// duplicates of the same aggregate share a column.
			ci := len(stmt.GroupBy) + aggSeen
			aggSeen++
			srcIdx = append(srcIdx, ci)
		} else {
			ci := sch.Index(item.Column)
			if ci < 0 {
				return nil, fmt.Errorf("sql: internal: lost group column %q", item.Column)
			}
			srcIdx = append(srcIdx, ci)
		}
		names = append(names, item.OutputName())
	}

	outSch := make(engine.Schema, len(srcIdx))
	for i, ci := range srcIdx {
		outSch[i] = engine.Column{Name: names[i], Kind: sch[ci].Kind}
	}
	out := engine.NewTable(outSch)
	for _, row := range grouped.Rows() {
		proj := make(value.Tuple, len(srcIdx))
		for i, ci := range srcIdx {
			proj[i] = row[ci]
		}
		out.MustAppend(proj)
	}
	if stmt.Distinct {
		return out.DistinctProject(out.Schema().Names())
	}
	return out, nil
}

// rename rebuilds a table with new column names (same data).
func rename(t *engine.Table, names []string) *engine.Table {
	sch := t.Schema().Clone()
	changed := false
	for i := range sch {
		if sch[i].Name != names[i] {
			sch[i].Name = names[i]
			changed = true
		}
	}
	if !changed {
		return t
	}
	out := engine.NewTable(sch)
	for _, r := range t.Rows() {
		out.MustAppend(r)
	}
	return out
}

// orderBy sorts rows of schema sch in place honoring per-key direction.
func orderBy(rows []value.Tuple, sch engine.Schema, keys []OrderKey) error {
	idx := make([]int, len(keys))
	for i, k := range keys {
		ci := sch.Index(k.Column)
		if ci < 0 {
			return fmt.Errorf("sql: ORDER BY references unknown column %q", k.Column)
		}
		idx[i] = ci
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for i, ci := range idx {
			c := value.Compare(rows[a][ci], rows[b][ci])
			if c == 0 {
				continue
			}
			if keys[i].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return nil
}

// compilePredicate turns a WHERE expression into a row predicate with
// column indices resolved once.
func compilePredicate(e Expr, sch engine.Schema) (func(value.Tuple) bool, error) {
	eval, err := compileBool(e, sch)
	if err != nil {
		return nil, err
	}
	return eval, nil
}

// compileBool compiles boolean expressions.
func compileBool(e Expr, sch engine.Schema) (func(value.Tuple) bool, error) {
	switch n := e.(type) {
	case Logical:
		l, err := compileBool(n.L, sch)
		if err != nil {
			return nil, err
		}
		r, err := compileBool(n.R, sch)
		if err != nil {
			return nil, err
		}
		if n.And {
			return func(row value.Tuple) bool { return l(row) && r(row) }, nil
		}
		return func(row value.Tuple) bool { return l(row) || r(row) }, nil
	case Not:
		inner, err := compileBool(n.E, sch)
		if err != nil {
			return nil, err
		}
		return func(row value.Tuple) bool { return !inner(row) }, nil
	case IsNull:
		scalar, err := compileScalar(n.E, sch)
		if err != nil {
			return nil, err
		}
		negate := n.Negate
		return func(row value.Tuple) bool { return scalar(row).IsNull() != negate }, nil
	case Compare:
		l, err := compileScalar(n.L, sch)
		if err != nil {
			return nil, err
		}
		r, err := compileScalar(n.R, sch)
		if err != nil {
			return nil, err
		}
		op := n.Op
		return func(row value.Tuple) bool {
			lv, rv := l(row), r(row)
			// SQL three-valued logic collapsed to false: comparisons
			// against NULL never match.
			if lv.IsNull() || rv.IsNull() {
				return false
			}
			c := value.Compare(lv, rv)
			switch op {
			case OpEq:
				return c == 0
			case OpNe:
				return c != 0
			case OpLt:
				return c < 0
			case OpLe:
				return c <= 0
			case OpGt:
				return c > 0
			default:
				return c >= 0
			}
		}, nil
	default:
		return nil, fmt.Errorf("sql: expression %s is not boolean", e)
	}
}

// compileScalar compiles column references and literals.
func compileScalar(e Expr, sch engine.Schema) (func(value.Tuple) value.V, error) {
	switch n := e.(type) {
	case ColumnRef:
		ci := sch.Index(n.Name)
		if ci < 0 {
			return nil, fmt.Errorf("sql: unknown column %q", n.Name)
		}
		return func(row value.Tuple) value.V { return row[ci] }, nil
	case Literal:
		v := n.Val
		return func(value.Tuple) value.V { return v }, nil
	default:
		return nil, fmt.Errorf("sql: expression %s is not scalar", e)
	}
}
