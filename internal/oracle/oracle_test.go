package oracle

import (
	"fmt"
	"math"
	"testing"

	"cape/internal/value"
)

var (
	null = value.NewNull()
	i    = value.NewInt
	f    = value.NewFloat
	s    = value.NewString
)

// render prints rows with each non-NULL value's kind, so Int(1) and
// Float(1) differ.
func render(rows []value.Tuple) string {
	out := ""
	for _, r := range rows {
		out += "("
		for j, v := range r {
			if j > 0 {
				out += " "
			}
			if v.IsNull() {
				out += "NULL"
			} else {
				out += fmt.Sprintf("%s:%s", v.Kind(), v)
			}
		}
		out += ")"
	}
	return out
}

func expect(t *testing.T, label string, got []value.Tuple, want string) {
	t.Helper()
	if r := render(got); r != want {
		t.Errorf("%s:\n got %s\nwant %s", label, r, want)
	}
}

// The rows of the operator tests: column 1 mixes Int(1) and Float(1),
// one class under AppendKey; column 2 holds the measure.
var rows = []value.Tuple{
	{s("a"), f(1), i(4)},
	{s("b"), i(2), null},
	{s("a"), i(1), f(0.5)},
	{s("a"), f(1), i(4)},
}

func TestGroupBy(t *testing.T) {
	aggs := []Agg{{Count, -1}, {Count, 2}, {Sum, 2}, {Avg, 2}, {Min, 1}, {Max, 2}}
	// Groups in first-appearance order, keyed by their first row's
	// values; Sum turns Float once a Float is folded; Min keeps the
	// first of Compare-equal values.
	expect(t, "GroupBy(0)", GroupBy(rows, []int{0}, aggs),
		"(string:a int:3 int:3 float:8.5 float:2.8333333333333335 float:1 int:4)"+
			"(string:b int:1 int:0 NULL NULL int:2 NULL)")
	expect(t, "GroupBy(1)", GroupBy(rows, []int{1}, []Agg{{Sum, 2}}), "(float:1 float:8.5)(int:2 NULL)")
	expect(t, "GroupBy()", GroupBy(rows, nil, []Agg{{Count, -1}, {Sum, 1}}), "(int:4 float:5)")
	expect(t, "GroupBy over no rows", GroupBy(nil, nil, []Agg{{Count, -1}}), "")
}

func TestSelectEqAndDistinct(t *testing.T) {
	expect(t, "SelectEq", SelectEq(rows, []int{1}, value.Tuple{i(1)}),
		"(string:a float:1 int:4)(string:a int:1 float:0.5)(string:a float:1 int:4)")
	if n := len(SelectEq(rows, nil, nil)); n != len(rows) {
		t.Errorf("SelectEq on no columns kept %d of %d rows", n, len(rows))
	}
	expect(t, "DistinctProject", DistinctProject(rows, []int{0, 1}), "(string:a float:1)(string:b int:2)")
	expect(t, "DistinctProject()", DistinctProject(rows, nil), "()")
	expect(t, "DistinctProject() over no rows", DistinctProject(nil, nil), "")
	if n := CountDistinct(rows, []int{2}); n != 3 {
		t.Errorf("CountDistinct = %d, want 3", n)
	}
}

func TestCube(t *testing.T) {
	expect(t, "Cube", Cube(rows, []int{0, 1}, 1, 2, []Agg{{Count, -1}}),
		"(string:a NULL int:2 int:3)(string:b NULL int:2 int:1)"+
			"(NULL float:1 int:1 int:3)(NULL int:2 int:1 int:1)"+
			"(string:a float:1 int:0 int:3)(string:b int:2 int:0 int:1)")
}

func TestNorm(t *testing.T) {
	if got := Norm(rows, []int{0}, value.Tuple{s("a")}, Agg{Sum, 2}); got != 8.5 {
		t.Errorf("Norm = %g, want 8.5", got)
	}
	if got := Norm(rows, []int{0}, value.Tuple{s("z")}, Agg{Count, -1}); got != 0 {
		t.Errorf("Norm of an empty selection = %g, want 0", got)
	}
	neg := []value.Tuple{{s("a"), i(-3)}}
	if got := Norm(neg, []int{0}, value.Tuple{s("a")}, Agg{Sum, 1}); got != 3 {
		t.Errorf("Norm = %g, want |-3|", got)
	}
}

// TestExplain: the smallest question with one counterbalance. P = [a]:
// b ~> count(*) holds on a=x and predicts 2 everywhere; the question
// asks why (x, 1) is low, and (x, 2) with count 3 deviates upwards.
func TestExplain(t *testing.T) {
	data := []value.Tuple{
		{s("x"), i(1)},
		{s("x"), i(2)}, {s("x"), i(2)}, {s("x"), i(2)},
		{s("y"), i(1)},
	}
	p := Pattern{Key: "P", F: []string{"a"}, V: []string{"b"}, Agg: Agg{Count, -1},
		Local: func(frag value.Tuple) (func([]float64) float64, bool) {
			return func([]float64) float64 { return 2 }, frag.Equal(value.Tuple{s("x")})
		}}
	q := Question{GroupBy: []string{"a", "b"}, Values: value.Tuple{s("x"), i(1)}, Agg: Agg{Count, -1}, Low: true}
	expls, candidates := Explain([]string{"a", "b"}, data, q, []Pattern{p}, nil, 10, 1e-9)
	if candidates != 3 {
		t.Errorf("candidates = %d, want the 3 groups of γ_{a,b}", candidates)
	}
	if len(expls) != 1 {
		t.Fatalf("%d explanations, want 1: %+v", len(expls), expls)
	}
	e := expls[0]
	// NORM = |count(σ_{a=x, b=1})| = 1; d((x,1), (x,2)) = sqrt(1/2)
	// under the categorical metric.
	wantScore := 1 / (math.Sqrt(0.5)*1 + 1e-9)
	if !e.Tuple.Equal(value.Tuple{s("x"), i(2)}) || e.Deviation != 1 || e.Norm != 1 || e.Score != wantScore {
		t.Errorf("explanation %+v, want (x, 2) with deviation 1, NORM 1, score %g", e, wantScore)
	}
}
