package engine

import (
	"fmt"
	"strings"

	"cape/internal/value"
)

// AggFunc enumerates the aggregate functions the engine evaluates.
type AggFunc uint8

const (
	// Count counts rows (count(*)) or non-null values of an argument.
	Count AggFunc = iota
	// Sum adds numeric values.
	Sum
	// Avg averages numeric values.
	Avg
	// Min takes the minimum under value.Compare order.
	Min
	// Max takes the maximum under value.Compare order.
	Max
)

// String returns the lowercase SQL-ish name.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("agg(%d)", uint8(f))
	}
}

// ParseAggFunc converts a name back to an AggFunc.
func ParseAggFunc(s string) (AggFunc, error) {
	switch strings.ToLower(s) {
	case "count":
		return Count, nil
	case "sum":
		return Sum, nil
	case "avg":
		return Avg, nil
	case "min":
		return Min, nil
	case "max":
		return Max, nil
	}
	return 0, fmt.Errorf("engine: unknown aggregate %q", s)
}

// AggSpec is one aggregate expression, e.g. count(*) or sum(amount).
// Arg "*" (or "") with Count counts rows.
type AggSpec struct {
	Func AggFunc
	Arg  string
}

// ParseAggSpec parses a rendered aggregate expression of the form
// "func(arg)" — the inverse of AggSpec.String. An empty string parses
// to count(*); non-count aggregates require a non-star argument.
func ParseAggSpec(s string) (AggSpec, error) {
	if s == "" || s == "count(*)" {
		return AggSpec{Func: Count}, nil
	}
	i := strings.IndexByte(s, '(')
	if i <= 0 || s[len(s)-1] != ')' {
		return AggSpec{}, fmt.Errorf("engine: aggregate %q must look like func(arg)", s)
	}
	f, err := ParseAggFunc(s[:i])
	if err != nil {
		return AggSpec{}, err
	}
	a := AggSpec{Func: f, Arg: s[i+1 : len(s)-1]}
	if a.IsStar() && f != Count {
		return AggSpec{}, fmt.Errorf("engine: %s requires an argument", f)
	}
	return a, nil
}

// String renders "func(arg)" — the output column name used by GroupBy.
func (a AggSpec) String() string {
	arg := a.Arg
	if arg == "" {
		arg = "*"
	}
	return a.Func.String() + "(" + arg + ")"
}

// IsStar reports whether the aggregate is count(*) style (no argument).
func (a AggSpec) IsStar() bool { return a.Arg == "" || a.Arg == "*" }

// aggState accumulates one aggregate over one group. The fields a
// count or sum touches lead, so those folds stay within one cache line;
// ext holds the running minimum of a Min or maximum of a Max (a state
// serves one aggregate, never both).
type aggState struct {
	count    int64
	sumF     float64
	sumI     int64
	anyFloat bool
	seen     bool
	ext      value.V
}

func (s *aggState) add(v value.V, f AggFunc, star bool) {
	switch f {
	case Count:
		if star || !v.IsNull() {
			s.count++
		}
	case Sum, Avg:
		switch v.Kind() {
		case value.Int:
			s.sumI += v.Int()
			s.sumF += float64(v.Int())
			s.count++
		case value.Float:
			s.sumF += v.Float()
			s.anyFloat = true
			s.count++
		}
	case Min, Max:
		if !v.IsNull() {
			s.extend(v, f)
		}
	}
}

// extend folds one non-NULL Min/Max candidate: strict Compare, so the
// first-encountered of Compare-equal values wins.
func (s *aggState) extend(v value.V, f AggFunc) {
	if !s.seen {
		s.ext, s.seen = v, true
		return
	}
	if c := value.Compare(v, s.ext); f == Min && c < 0 || f == Max && c > 0 {
		s.ext = v
	}
}

func (s *aggState) result(f AggFunc) value.V {
	switch f {
	case Count:
		return value.NewInt(s.count)
	case Sum:
		if s.count == 0 {
			return value.NewNull()
		}
		if s.anyFloat {
			return value.NewFloat(s.sumF)
		}
		return value.NewInt(s.sumI)
	case Avg:
		if s.count == 0 {
			return value.NewNull()
		}
		return value.NewFloat(s.sumF / float64(s.count))
	case Min, Max:
		if !s.seen {
			return value.NewNull()
		}
		return s.ext
	default:
		return value.NewNull()
	}
}

// aggCol is one planned aggregate: the spec plus the resolved column
// index of its argument (-1 for count(*)).
type aggCol struct {
	spec AggSpec
	idx  int
}

// groupPlan resolves, against schema s, the group columns, aggregate
// arguments and output schema every GroupBy implementation shares.
func groupPlan(s Schema, groupCols []string, aggs []AggSpec) (gIdx []int, aCols []aggCol, sch Schema, err error) {
	gIdx, err = s.Indices(groupCols)
	if err != nil {
		return nil, nil, nil, err
	}
	aCols = make([]aggCol, len(aggs))
	for i, a := range aggs {
		ac := aggCol{spec: a, idx: -1}
		if !a.IsStar() {
			ci := s.Index(a.Arg)
			if ci < 0 {
				return nil, nil, nil, fmt.Errorf("engine: unknown aggregate argument %q", a.Arg)
			}
			ac.idx = ci
		} else if a.Func != Count {
			return nil, nil, nil, fmt.Errorf("engine: %s requires an argument", a.Func)
		}
		aCols[i] = ac
	}
	return gIdx, aCols, groupSchema(s, gIdx, aggs), nil
}

// groupSchema is GroupBy's output schema: the key columns gIdx of s,
// then one column per aggregate, named by AggSpec.String() and untyped
// (a result's kind varies: Int, Float or the argument's).
func groupSchema(s Schema, gIdx []int, aggs []AggSpec) Schema {
	sch := make(Schema, 0, len(gIdx)+len(aggs))
	for _, ci := range gIdx {
		sch = append(sch, s[ci])
	}
	for _, a := range aggs {
		sch = append(sch, Column{Name: a.String(), Kind: value.Null})
	}
	return sch
}

// GroupBy evaluates SELECT groupCols, aggs... FROM t GROUP BY groupCols.
// The output schema is the group columns followed by one column per
// aggregate, named by AggSpec.String(). Groups appear in first-appearance
// order. groupCols may be empty, producing a single global group.
//
// The table runs the parts kernels as one solo dense part (see
// ckernels.go).
func (t *Table) GroupBy(groupCols []string, aggs []AggSpec) (*Table, error) {
	gIdx, aCols, sch, err := groupPlan(t.schema, groupCols, aggs)
	if err != nil {
		return nil, err
	}
	return groupByParts(t.parts(gIdx, aCols), len(gIdx), aCols, sch), nil
}
