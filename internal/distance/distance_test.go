package distance

import (
	"math"
	"testing"
	"testing/quick"

	"cape/internal/value"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCategorical(t *testing.T) {
	c := Categorical{}
	if c.Distance(value.NewString("a"), value.NewString("a")) != 0 {
		t.Error("equal values should have distance 0")
	}
	if c.Distance(value.NewString("a"), value.NewString("b")) != 1 {
		t.Error("distinct values should have distance 1")
	}
	if c.Distance(value.NewInt(1), value.NewFloat(1)) != 0 {
		t.Error("numerically equal values should have distance 0")
	}
}

func TestNumeric(t *testing.T) {
	n := Numeric{Scale: 4}
	if got := n.Distance(value.NewInt(2007), value.NewInt(2008)); got != 0.25 {
		t.Errorf("1 year at scale 4 = %g, want 0.25", got)
	}
	if got := n.Distance(value.NewInt(2007), value.NewInt(2020)); got != 1 {
		t.Errorf("13 years should cap at 1, got %g", got)
	}
	if got := n.Distance(value.NewInt(5), value.NewInt(5)); got != 0 {
		t.Errorf("equal = %g", got)
	}
	if got := n.Distance(value.NewString("x"), value.NewInt(5)); got != 1 {
		t.Errorf("non-numeric mismatch = %g, want 1", got)
	}
	nan := value.NewFloat(math.NaN())
	if got := n.Distance(nan, value.NewInt(5)); got != 1 {
		t.Errorf("NaN vs number = %g, want 1", got)
	}
	if got := n.Distance(nan, nan); got != 0 {
		t.Errorf("NaN vs NaN = %g, want 0", got)
	}
	zero := Numeric{} // Scale 0 treated as 1
	if got := zero.Distance(value.NewInt(0), value.NewFloat(0.5)); got != 0.5 {
		t.Errorf("default scale distance = %g, want 0.5", got)
	}
}

func TestNumericSymmetry(t *testing.T) {
	n := Numeric{Scale: 10}
	f := func(a, b int16) bool {
		va, vb := value.NewInt(int64(a)), value.NewInt(int64(b))
		return n.Distance(va, vb) == n.Distance(vb, va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClassed(t *testing.T) {
	c := Classed{
		Class:       map[string]string{"SIGKDD": "DM", "ICDM": "DM", "SIGMOD": "DB", "VLDB": "DB"},
		WithinClass: 0.3,
	}
	if got := c.Distance(value.NewString("SIGKDD"), value.NewString("ICDM")); got != 0.3 {
		t.Errorf("same class = %g, want 0.3", got)
	}
	if got := c.Distance(value.NewString("SIGKDD"), value.NewString("VLDB")); got != 1 {
		t.Errorf("different class = %g, want 1", got)
	}
	if got := c.Distance(value.NewString("SIGKDD"), value.NewString("SIGKDD")); got != 0 {
		t.Errorf("equal = %g, want 0", got)
	}
	if got := c.Distance(value.NewString("UNKNOWN"), value.NewString("SIGKDD")); got != 1 {
		t.Errorf("unmapped value = %g, want 1", got)
	}
}

func TestMetricDistanceSameSchema(t *testing.T) {
	m := NewMetric()
	t1 := Tuple{"a": value.NewString("x"), "b": value.NewString("y")}
	t2 := Tuple{"a": value.NewString("x"), "b": value.NewString("z")}
	// One attribute of two differs: sqrt((0 + 1)/2).
	if got := m.Distance(t1, t2); !almostEq(got, math.Sqrt(0.5), 1e-12) {
		t.Errorf("distance = %g, want %g", got, math.Sqrt(0.5))
	}
	if got := m.Distance(t1, t1); got != 0 {
		t.Errorf("identical tuples = %g, want 0", got)
	}
}

func TestMetricDistanceDifferentSchemas(t *testing.T) {
	m := NewMetric()
	t1 := Tuple{"a": value.NewString("x"), "b": value.NewString("y")}
	t2 := Tuple{"a": value.NewString("x"), "c": value.NewString("z")}
	// Union = {a,b,c}; a matches (0), b and c each contribute 1.
	want := math.Sqrt(2.0 / 3.0)
	if got := m.Distance(t1, t2); !almostEq(got, want, 1e-12) {
		t.Errorf("distance = %g, want %g", got, want)
	}
}

func TestMetricDistanceSymmetric(t *testing.T) {
	m := NewMetric().SetWeight("a", 2).SetFunc("b", Numeric{Scale: 5})
	t1 := Tuple{"a": value.NewString("x"), "b": value.NewInt(3)}
	t2 := Tuple{"b": value.NewInt(5), "c": value.NewString("q")}
	if m.Distance(t1, t2) != m.Distance(t2, t1) {
		t.Error("metric distance should be symmetric")
	}
}

func TestMetricWeights(t *testing.T) {
	m := NewMetric().SetWeight("a", 3).SetWeight("b", 1)
	t1 := Tuple{"a": value.NewString("x"), "b": value.NewString("y")}
	t2 := Tuple{"a": value.NewString("q"), "b": value.NewString("y")}
	// a differs with weight 3 of total 4: sqrt(3/4).
	if got := m.Distance(t1, t2); !almostEq(got, math.Sqrt(0.75), 1e-12) {
		t.Errorf("weighted distance = %g, want %g", got, math.Sqrt(0.75))
	}
}

func TestMetricDefaults(t *testing.T) {
	var m *Metric // nil metric: all defaults
	if m.WeightOf("a") != 1 {
		t.Error("nil metric default weight should be 1")
	}
	m2 := &Metric{Default: Numeric{Scale: 2}, DefaultWeight: 5}
	if m2.WeightOf("anything") != 5 {
		t.Error("DefaultWeight not honored")
	}
	if got := m2.funcFor("z").Distance(value.NewInt(0), value.NewInt(1)); got != 0.5 {
		t.Errorf("Default func not honored: %g", got)
	}
}

func TestMetricEmptyTuples(t *testing.T) {
	m := NewMetric()
	if got := m.Distance(Tuple{}, Tuple{}); got != 0 {
		t.Errorf("empty tuples = %g, want 0", got)
	}
}

func TestDistanceRange(t *testing.T) {
	m := NewMetric().SetFunc("n", Numeric{Scale: 3})
	f := func(a, b int8, s1, s2 string) bool {
		t1 := Tuple{"n": value.NewInt(int64(a)), "s": value.NewString(s1)}
		t2 := Tuple{"n": value.NewInt(int64(b)), "s": value.NewString(s2)}
		d := m.Distance(t1, t2)
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLowerBound(t *testing.T) {
	m := NewMetric()
	// Same attribute sets: bound 0.
	if got := m.LowerBound([]string{"a", "b"}, []string{"b", "a"}); got != 0 {
		t.Errorf("identical attr sets bound = %g, want 0", got)
	}
	// One extra attribute on one side: sqrt(1/3).
	if got := m.LowerBound([]string{"a", "b"}, []string{"a", "b", "c"}); !almostEq(got, math.Sqrt(1.0/3.0), 1e-12) {
		t.Errorf("bound = %g, want %g", got, math.Sqrt(1.0/3.0))
	}
	if got := m.LowerBound(nil, nil); got != 0 {
		t.Errorf("empty bound = %g", got)
	}
}

// TestLowerBoundIsActuallyLower: for random tuples over the given
// schemas, Distance is never below LowerBound.
func TestLowerBoundIsActuallyLower(t *testing.T) {
	m := NewMetric().SetFunc("n", Numeric{Scale: 2}).SetWeight("s", 3)
	attrs1 := []string{"n", "s", "only1"}
	attrs2 := []string{"n", "s", "only2"}
	bound := m.LowerBound(attrs1, attrs2)
	f := func(a, b int8, s1, s2 string) bool {
		t1 := Tuple{"n": value.NewInt(int64(a)), "s": value.NewString(s1), "only1": value.NewInt(0)}
		t2 := Tuple{"n": value.NewInt(int64(b)), "s": value.NewString(s2), "only2": value.NewInt(0)}
		return m.Distance(t1, t2) >= bound-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMetricDistanceDeterministic: the weighted sum must not depend on
// map iteration order. With fractional weights and distances the float
// additions do not commute bit for bit, so repeated calls over the same
// tuples must agree in every bit — and stay free of allocations.
func TestMetricDistanceDeterministic(t *testing.T) {
	m := NewMetric()
	m.Default = Numeric{Scale: 3}
	attrs := []string{"a", "b", "c", "d", "e"}
	weights := []float64{0.13, 0.23, 0.31, 0.47, 0.53}
	t1, t2 := Tuple{}, Tuple{}
	for i, a := range attrs {
		m.SetWeight(a, weights[i])
		t1[a] = value.NewFloat(float64(i) + 0.1)
		t2[a] = value.NewFloat(float64(i)*1.37 + 0.55)
	}
	want := math.Float64bits(m.Distance(t1, t2))
	for i := 0; i < 500; i++ {
		if got := math.Float64bits(m.Distance(t1, t2)); got != want {
			t.Fatalf("call %d: distance bits %x, first call %x", i, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { m.Distance(t1, t2) }); allocs != 0 {
		t.Errorf("Distance allocates %v times per call", allocs)
	}
}
