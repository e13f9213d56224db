// Package oracle is the reference model the differential tests hold the
// engine, the miners' inputs and the explanation generators to. It
// writes the paper's relational operators — grouping γ, selection σ,
// projection π and CUBE — and its explanation definitions (Definitions
// 5–7 and 10, NORM as σ-then-aggregate) literally, one row at a time
// over []value.Tuple, with plain maps and no index, bound or cache.
//
// Speed does not matter here; only the answers do. Every answer is
// deterministic: groups come in first-appearance order, aggregates fold
// in row order, and nothing depends on map iteration order.
//
// The package is test support. No production package imports it (make
// check fails if one does), and from this module it imports only value
// and distance, so any package's tests — engine's included — can use it.
package oracle

import (
	"math"

	"cape/internal/value"
)

// Func is an aggregate function.
type Func uint8

const (
	// Count counts rows (Arg < 0) or the non-NULL values of Arg.
	Count Func = iota
	// Sum adds the Int and Float values of Arg.
	Sum
	// Avg divides the float sum of Arg's Int and Float values by their
	// number.
	Avg
	// Min keeps the least non-NULL value of Arg under value.Compare.
	Min
	// Max keeps the greatest non-NULL value of Arg under value.Compare.
	Max
)

// Agg is one aggregate over the column at index Arg; Arg < 0 is
// count(*).
type Agg struct {
	Func Func
	Arg  int
}

// fold is one aggregate's running state over one group.
type fold struct {
	n        int64   // rows counted, or numeric values summed
	sumI     int64   // Int sum
	sumF     float64 // float64 sum of every numeric value, in row order
	anyFloat bool    // some Float was summed
	ext      value.V // Min/Max so far
	has      bool    // ext is set
}

func (s *fold) add(a Agg, row value.Tuple) {
	var v value.V
	if a.Arg >= 0 {
		v = row[a.Arg]
	}
	switch a.Func {
	case Count:
		if a.Arg < 0 || !v.IsNull() {
			s.n++
		}
	case Sum, Avg:
		switch v.Kind() {
		case value.Int:
			s.n++
			s.sumI += v.Int()
			s.sumF += float64(v.Int())
		case value.Float:
			s.n++
			s.sumF += v.Float()
			s.anyFloat = true
		}
	case Min, Max:
		if v.IsNull() {
			return
		}
		c := value.Compare(v, s.ext)
		if !s.has || a.Func == Min && c < 0 || a.Func == Max && c > 0 {
			s.ext, s.has = v, true
		}
	}
}

func (s *fold) result(f Func) value.V {
	switch f {
	case Count:
		return value.NewInt(s.n)
	case Sum:
		switch {
		case s.n == 0:
			return value.NewNull()
		case s.anyFloat:
			return value.NewFloat(s.sumF)
		}
		return value.NewInt(s.sumI)
	case Avg:
		if s.n == 0 {
			return value.NewNull()
		}
		return value.NewFloat(s.sumF / float64(s.n))
	case Min, Max:
		if s.has {
			return s.ext
		}
	}
	return value.NewNull()
}

// project returns row's values at cols.
func project(row value.Tuple, cols []int) value.Tuple {
	out := make(value.Tuple, len(cols))
	for i, c := range cols {
		out[i] = row[c]
	}
	return out
}

// GroupBy is γ_{cols, aggs}(rows): one output row per group of
// AppendKey-equal cols values, the key followed by one value per
// aggregate. Groups come in first-appearance order and take the key
// values of their first row; no cols put every row in one group, and
// no rows give no groups.
func GroupBy(rows []value.Tuple, cols []int, aggs []Agg) []value.Tuple {
	index := map[string]int{}
	var keys []value.Tuple
	var folds [][]fold
	for _, row := range rows {
		key := project(row, cols)
		g, ok := index[key.Key()]
		if !ok {
			g = len(keys)
			index[key.Key()] = g
			keys = append(keys, key)
			folds = append(folds, make([]fold, len(aggs)))
		}
		for i, a := range aggs {
			folds[g][i].add(a, row)
		}
	}
	out := make([]value.Tuple, len(keys))
	for g, key := range keys {
		out[g] = key
		for i, a := range aggs {
			out[g] = append(out[g], folds[g][i].result(a.Func))
		}
	}
	return out
}

// SelectEq is σ_{cols = vals}(rows) under value.Equal, in row order; no
// cols select every row.
func SelectEq(rows []value.Tuple, cols []int, vals value.Tuple) []value.Tuple {
	var out []value.Tuple
	for _, row := range rows {
		if project(row, cols).Equal(vals) {
			out = append(out, row)
		}
	}
	return out
}

// DistinctProject is π_cols(rows) with duplicates removed, in
// first-appearance order: one empty tuple for no cols over a non-empty
// input.
func DistinctProject(rows []value.Tuple, cols []int) []value.Tuple {
	return GroupBy(rows, cols, nil)
}

// CountDistinct is |DistinctProject(rows, cols)|.
func CountDistinct(rows []value.Tuple, cols []int) int {
	return len(DistinctProject(rows, cols))
}

// Cube is the union of GroupBy over every subset S of cols with
// minSize ≤ |S| ≤ maxSize, in bitmask order (bit i set ⇔ cols[i] ∈ S).
// A row holds cols' values with NULL for each rolled-up column, then the
// grouping bitmask as an Int (bit i set ⇔ cols[i] rolled up, as SQL's
// GROUPING()), then the aggregates.
func Cube(rows []value.Tuple, cols []int, minSize, maxSize int, aggs []Agg) []value.Tuple {
	all := uint64(1)<<len(cols) - 1
	var out []value.Tuple
	for mask := uint64(0); mask <= all; mask++ {
		var subset []int
		for i, c := range cols {
			if mask&(1<<i) != 0 {
				subset = append(subset, c)
			}
		}
		if len(subset) < minSize || len(subset) > maxSize {
			continue
		}
		for _, g := range GroupBy(rows, subset, aggs) {
			var row value.Tuple
			k := 0
			for i := range cols {
				if mask&(1<<i) != 0 {
					row = append(row, g[k])
					k++
				} else {
					row = append(row, value.NewNull())
				}
			}
			row = append(row, value.NewInt(int64(^mask&all)))
			out = append(out, append(row, g[k:]...))
		}
	}
	return out
}

// Norm is Definition 10's normalization factor NORM: the absolute value
// of agg over σ_{cols = vals}(rows), the question's group under the
// pattern's grouping F ∪ V. An empty selection or a non-numeric
// aggregate gives 0.
func Norm(rows []value.Tuple, cols []int, vals value.Tuple, agg Agg) float64 {
	out := GroupBy(SelectEq(rows, cols, vals), nil, []Agg{agg})
	if len(out) == 0 {
		return 0
	}
	f, _ := out[0][0].AsFloat()
	return math.Abs(f)
}
