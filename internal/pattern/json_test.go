package pattern

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"cape/internal/engine"
	"cape/internal/regress"
	"cape/internal/value"
)

func minedForJSON(t *testing.T) []*Mined {
	t.Helper()
	tab := figure1Table(t)
	th := Thresholds{Theta: 0.2, LocalSupport: 2, Lambda: 0.5, GlobalSupport: 2}
	p := Pattern{F: []string{"author"}, V: []string{"year"},
		Agg: engine.AggSpec{Func: engine.Count}, Model: regress.Const}
	m, err := Fit(p, tab, th, nil)
	if err != nil || m == nil {
		t.Fatalf("fit: %v %v", m, err)
	}
	return []*Mined{m}
}

// TestJSONRoundTripNonFiniteFragment: a pattern set with NaN and ±Inf
// fragment values writes and reads back with the same local models.
func TestJSONRoundTripNonFiniteFragment(t *testing.T) {
	tab := engine.NewTable(engine.Schema{{Name: "k", Kind: value.Float}, {Name: "year", Kind: value.Int}})
	for _, k := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 2.5} {
		for year := int64(2000); year < 2004; year++ {
			tab.MustAppend(value.Tuple{value.NewFloat(k), value.NewInt(year)})
		}
	}
	p := Pattern{F: []string{"k"}, V: []string{"year"}, Agg: engine.AggSpec{Func: engine.Count}, Model: regress.Const}
	m, err := Fit(p, tab, Thresholds{Theta: 0.2, LocalSupport: 2, Lambda: 0.5, GlobalSupport: 2}, nil)
	if err != nil || m == nil || len(m.Locals) != 4 {
		t.Fatalf("fit: %v %v", m, err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*Mined{m}); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for k, lm := range m.Locals {
		if gl, ok := back[0].Locals[k]; !ok || gl.Support != lm.Support {
			t.Errorf("fragment %v lost in the round trip", lm.Frag)
		}
	}
	buf.Reset()
	if err := WriteJSON(&buf, back); err != nil {
		t.Fatal(err)
	}
	if buf.String() != first {
		t.Errorf("re-encoding differs:\n%s\nvs\n%s", buf.String(), first)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	patterns := minedForJSON(t)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, patterns); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("patterns = %d", len(back))
	}
	orig, got := patterns[0], back[0]
	if got.Pattern.Key() != orig.Pattern.Key() {
		t.Errorf("pattern key %q vs %q", got.Pattern.Key(), orig.Pattern.Key())
	}
	if got.NumFragments != orig.NumFragments || got.NumSupported != orig.NumSupported ||
		got.Confidence != orig.Confidence {
		t.Errorf("stats differ: %+v vs %+v", got, orig)
	}
	if len(got.Locals) != len(orig.Locals) {
		t.Fatalf("locals = %d vs %d", len(got.Locals), len(orig.Locals))
	}
	for k, lm := range orig.Locals {
		gl, ok := got.Locals[k]
		if !ok {
			t.Fatalf("missing fragment %v", lm.Frag)
		}
		if gl.Model.Predict(nil) != lm.Model.Predict(nil) {
			t.Errorf("prediction differs: %g vs %g", gl.Model.Predict(nil), lm.Model.Predict(nil))
		}
		if gl.Model.GoF() != lm.Model.GoF() || gl.Support != lm.Support {
			t.Errorf("local stats differ for %v", lm.Frag)
		}
	}
}

func TestJSONFileRoundTrip(t *testing.T) {
	patterns := minedForJSON(t)
	path := filepath.Join(t.TempDir(), "patterns.json")
	if err := WriteJSONFile(path, patterns); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(patterns) {
		t.Errorf("file round trip lost patterns")
	}
	if _, err := ReadJSONFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`[{"f":["a"],"v":["b"],"agg":"median","model":"Const"}]`,
		`[{"f":["a"],"v":["b"],"agg":"count","model":"Quadratic"}]`,
		`[{"f":[],"v":["b"],"agg":"count","model":"Const"}]`, // invalid pattern
		`[{"f":["a"],"v":["b"],"agg":"count","model":"Const",
		   "locals":[{"frag":[{"k":"string","s":"x"}],"params":[],"gof":0.5}]}]`, // bad params
		`[{"f":["a"],"v":["b"],"agg":"count","model":"Const",
		   "locals":[{"frag":[{"k":"string","s":"x"}],"params":[1],"gof":7}]}]`, // bad gof
	}
	for i, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: bad input accepted", i)
		}
	}
}

func TestLinModelJSONRoundTrip(t *testing.T) {
	model, err := regress.Fit(regress.Lin, [][]float64{{0}, {1}, {2}}, []float64{1, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	m := &Mined{
		Pattern: Pattern{F: []string{"a"}, V: []string{"y"},
			Agg: engine.AggSpec{Func: engine.Count}, Model: regress.Lin},
		Locals: map[string]*LocalModel{},
	}
	frag := value.Tuple{value.NewString("f1")}
	m.Locals[frag.Key()] = &LocalModel{Frag: frag, Model: model, Support: 3}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*Mined{m}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lm, ok := back[0].Local(frag)
	if !ok {
		t.Fatal("fragment lost")
	}
	if got := lm.Model.Predict([]float64{10}); got != model.Predict([]float64{10}) {
		t.Errorf("Lin prediction differs after round trip: %g vs %g", got, model.Predict([]float64{10}))
	}
}
