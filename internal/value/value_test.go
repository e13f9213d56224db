package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Null: "null", Int: "int", Float: "float", String: "string", Kind(99): "kind(99)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !NewNull().IsNull() {
		t.Error("NewNull should be null")
	}
	if got := NewInt(42).Int(); got != 42 {
		t.Errorf("Int() = %d, want 42", got)
	}
	if got := NewFloat(2.5).Float(); got != 2.5 {
		t.Errorf("Float() = %g, want 2.5", got)
	}
	if got := NewString("abc").Str(); got != "abc" {
		t.Errorf("Str() = %q, want abc", got)
	}
}

func TestAccessorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Int on string": func() { NewString("x").Int() },
		"Float on int":  func() { NewInt(1).Float() },
		"Str on float":  func() { NewFloat(1).Str() },
		"Int on null":   func() { NewNull().Int() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAsFloat(t *testing.T) {
	if f, ok := NewInt(3).AsFloat(); !ok || f != 3 {
		t.Errorf("AsFloat(Int 3) = %g,%v", f, ok)
	}
	if f, ok := NewFloat(1.5).AsFloat(); !ok || f != 1.5 {
		t.Errorf("AsFloat(Float 1.5) = %g,%v", f, ok)
	}
	if _, ok := NewString("x").AsFloat(); ok {
		t.Error("AsFloat(String) should fail")
	}
	if _, ok := NewNull().AsFloat(); ok {
		t.Error("AsFloat(Null) should fail")
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b V
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(1), 1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(1), NewFloat(1.0), 0},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewNull(), NewNull(), 0},
		{NewNull(), NewInt(0), -1},
		{NewInt(0), NewNull(), 1},
		{NewInt(5), NewString("5"), -1}, // numeric kinds sort before string
		{NewString(""), NewFloat(9), 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		return Compare(va, vb) == -Compare(vb, va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqualMatchesCompare(t *testing.T) {
	f := func(a, b float64, i int64, nan bool) bool {
		if nan {
			a = math.NaN()
		}
		vals := []V{NewFloat(a), NewFloat(b), NewInt(i), NewFloat(float64(i))}
		for _, x := range vals {
			for _, y := range vals {
				if Equal(x, y) != (Compare(x, y) == 0) || Equal(x, y) != sameKey(x, y) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    V
		want string
	}{
		{NewNull(), "∅"},
		{NewInt(-7), "-7"},
		{NewFloat(2.5), "2.5"},
		{NewString("ICDE"), "ICDE"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestAppendKeyInjective(t *testing.T) {
	vals := []V{
		NewNull(), NewInt(0), NewInt(1), NewInt(-1),
		NewFloat(0.5), NewFloat(-0.5), NewString(""), NewString("a"),
		NewString("ab"), NewString("a\x00b"),
	}
	seen := map[string]V{}
	for _, v := range vals {
		k := string(v.AppendKey(nil))
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision between %v and %v", prev, v)
		}
		seen[k] = v
	}
}

func TestAppendKeyEqualValuesShareKey(t *testing.T) {
	// Int(7) and Float(7.0) must group together: Compare says equal.
	a := string(NewInt(7).AppendKey(nil))
	b := string(NewFloat(7).AppendKey(nil))
	if a != b {
		t.Errorf("Int(7) and Float(7.0) encode differently: %q vs %q", a, b)
	}
}

func TestAppendKeyStringPrefixSafety(t *testing.T) {
	// ("a", "b") must not collide with ("ab", "") etc.
	t1 := Tuple{NewString("a"), NewString("b")}
	t2 := Tuple{NewString("ab"), NewString("")}
	if t1.Key() == t2.Key() {
		t.Error("tuple key collision for string concatenation ambiguity")
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want V
	}{
		{"", NewNull()},
		{"42", NewInt(42)},
		{"-3", NewInt(-3)},
		{"2.5", NewFloat(2.5)},
		{"1e3", NewFloat(1000)},
		{"SIGKDD", NewString("SIGKDD")},
		{"12abc", NewString("12abc")},
	}
	for _, c := range cases {
		if got := Parse(c.in); !Equal(got, c.want) || got.Kind() != c.want.Kind() {
			t.Errorf("Parse(%q) = %v (%v), want %v (%v)", c.in, got, got.Kind(), c.want, c.want.Kind())
		}
	}
}

func TestTupleClone(t *testing.T) {
	orig := Tuple{NewInt(1), NewString("x")}
	cl := orig.Clone()
	cl[0] = NewInt(99)
	if orig[0].Int() != 1 {
		t.Error("Clone did not copy backing array")
	}
}

func TestTupleEqualAndCompare(t *testing.T) {
	a := Tuple{NewInt(1), NewString("x")}
	b := Tuple{NewInt(1), NewString("x")}
	c := Tuple{NewInt(1), NewString("y")}
	d := Tuple{NewInt(1)}
	if !a.Equal(b) {
		t.Error("identical tuples should be Equal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("different tuples should not be Equal")
	}
	if a.Compare(c) >= 0 {
		t.Error("a < c expected")
	}
	if d.Compare(a) >= 0 {
		t.Error("shorter prefix tuple should sort first")
	}
	if a.Compare(d) <= 0 {
		t.Error("longer tuple should sort after its prefix")
	}
}

func TestTupleKeyInjective(t *testing.T) {
	f := func(a, b int64, s1, s2 string) bool {
		t1 := Tuple{NewInt(a), NewString(s1)}
		t2 := Tuple{NewInt(b), NewString(s2)}
		return t1.Equal(t2) == (t1.Key() == t2.Key())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleString(t *testing.T) {
	tp := Tuple{NewInt(1), NewString("ICDE"), NewNull()}
	if got := tp.String(); got != "(1, ICDE, ∅)" {
		t.Errorf("Tuple.String() = %q", got)
	}
}

func TestCompareTotalOrderTransitivity(t *testing.T) {
	vals := append([]V{NewFloat(0.5), NewString(""), NewString("z")}, edgeValues()...)
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Fatalf("transitivity violated: %v <= %v <= %v but %v > %v", a, b, c, a, c)
				}
			}
		}
	}
}

// edgeValues are the values where a float64-rounding or IEEE comparison
// would disagree with AppendKey: NaN (two payloads), ±0.0, ±Inf, the
// integers around ±2^53 and the int64 bounds, and the floats ±2^63.
func edgeValues() []V {
	const p53 = int64(1) << 53
	return []V{
		NewNull(), NewInt(-5), NewInt(0), NewInt(3), NewFloat(3), NewFloat(-2.5),
		NewFloat(math.NaN()), NewFloat(math.Float64frombits(0x7ff8000000000000)),
		NewFloat(math.Copysign(0, -1)), NewFloat(0),
		NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
		NewInt(p53), NewInt(p53 + 1), NewInt(p53 - 1), NewInt(-p53), NewInt(-p53 - 1),
		NewFloat(float64(p53)), NewFloat(float64(p53) + 2), NewFloat(-float64(p53)),
		NewInt(math.MaxInt64), NewInt(math.MinInt64), NewInt(math.MaxInt64 - 1),
		NewFloat(math.Ldexp(1, 63)), NewFloat(-math.Ldexp(1, 63)), NewFloat(math.Ldexp(1, 62) + 1024),
		NewString("a"),
	}
}

func sameKey(a, b V) bool { return string(a.AppendKey(nil)) == string(b.AppendKey(nil)) }

// checkCompareAgreesWithKey checks one triple: Equal ⟺ equal AppendKey,
// Compare antisymmetric, and Compare transitive.
func checkCompareAgreesWithKey(t *testing.T, a, b, c V) {
	t.Helper()
	for _, p := range [][2]V{{a, b}, {b, c}, {a, c}} {
		x, y := p[0], p[1]
		if Equal(x, y) != sameKey(x, y) {
			t.Fatalf("Equal(%v, %v) = %v but AppendKey equality = %v", x, y, Equal(x, y), sameKey(x, y))
		}
		if Compare(x, y) != -Compare(y, x) {
			t.Fatalf("Compare(%v, %v) = %d, Compare(%v, %v) = %d", x, y, Compare(x, y), y, x, Compare(y, x))
		}
	}
	ab, bc, ac := Compare(a, b), Compare(b, c), Compare(a, c)
	if ab <= 0 && bc <= 0 && ac > 0 || ab >= 0 && bc >= 0 && ac < 0 ||
		ab == 0 && bc == 0 && ac != 0 {
		t.Fatalf("transitivity violated on %v, %v, %v: %d %d %d", a, b, c, ab, bc, ac)
	}
}

func TestCompareAgreesWithKey(t *testing.T) {
	vals := edgeValues()
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				checkCompareAgreesWithKey(t, a, b, c)
			}
		}
	}
}

func TestCompareEdgeOrdering(t *testing.T) {
	p53 := int64(1) << 53
	nan := NewFloat(math.NaN())
	cases := []struct {
		a, b V
		want int
	}{
		{NewInt(p53), NewInt(p53 + 1), -1},
		{NewFloat(float64(p53)), NewInt(p53 + 1), -1},
		{NewInt(p53 + 1), NewFloat(float64(p53) + 2), -1},
		{nan, nan, 0},
		{nan, NewFloat(math.Inf(1)), 1},
		{nan, NewInt(math.MaxInt64), 1},
		{nan, NewString(""), -1},
		{NewNull(), nan, -1},
		{NewFloat(math.Copysign(0, -1)), NewInt(0), 0},
		{NewInt(math.MaxInt64), NewFloat(math.Ldexp(1, 63)), -1},
		{NewInt(math.MinInt64), NewFloat(-math.Ldexp(1, 63)), 0},
		{NewInt(-1), NewFloat(-0.5), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestAppendKeyFloatTwoTo63 pins the int64 range check: 2^63 is past
// MaxInt64 and must not wrap to the key of MinInt64.
func TestAppendKeyFloatTwoTo63(t *testing.T) {
	if sameKey(NewFloat(math.Ldexp(1, 63)), NewInt(math.MinInt64)) {
		t.Error("Float(2^63) shares the key of Int(MinInt64)")
	}
	if !sameKey(NewFloat(-math.Ldexp(1, 63)), NewInt(math.MinInt64)) {
		t.Error("Float(-2^63) must share the key of Int(MinInt64)")
	}
}

func FuzzCompareAgreesWithKey(f *testing.F) {
	edges := edgeValues()
	for i := range edges {
		f.Add(uint8(i), uint8(i+1), uint8(i+2), int64(0), uint64(0))
	}
	f.Add(uint8(255), uint8(254), uint8(253), int64(1)<<53+1, math.Float64bits(math.Ldexp(1, 53)))
	f.Fuzz(func(t *testing.T, sa, sb, sc uint8, i int64, fbits uint64) {
		// A selector picks an edge value, the fuzzed int, the fuzzed
		// float bits, or the fuzzed int as a float.
		pick := func(sel uint8) V {
			switch n := int(sel) % (len(edges) + 3); {
			case n < len(edges):
				return edges[n]
			case n == len(edges):
				return NewInt(i)
			case n == len(edges)+1:
				return NewFloat(math.Float64frombits(fbits))
			default:
				return NewFloat(float64(i))
			}
		}
		checkCompareAgreesWithKey(t, pick(sa), pick(sb), pick(sc))
	})
}
