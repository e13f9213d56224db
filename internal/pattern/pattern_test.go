package pattern

import (
	"testing"

	"cape/internal/engine"
	"cape/internal/regress"
)

func countStar() engine.AggSpec { return engine.AggSpec{Func: engine.Count} }

func TestPatternString(t *testing.T) {
	p := Pattern{F: []string{"author"}, V: []string{"year"}, Agg: countStar(), Model: regress.Const}
	if got := p.String(); got != "[author]: year ~Const~> count(*)" {
		t.Errorf("String() = %q", got)
	}
}

func TestPatternKeyCanonical(t *testing.T) {
	a := Pattern{F: []string{"x", "y"}, V: []string{"z"}, Agg: countStar(), Model: regress.Const}
	b := Pattern{F: []string{"y", "x"}, V: []string{"z"}, Agg: countStar(), Model: regress.Const}
	if a.Key() != b.Key() {
		t.Error("Key should normalize attribute order within F")
	}
	c := Pattern{F: []string{"x"}, V: []string{"y", "z"}, Agg: countStar(), Model: regress.Const}
	if a.Key() == c.Key() {
		t.Error("different F/V split must produce different keys")
	}
	d := a
	d.Model = regress.Lin
	if a.Key() == d.Key() {
		t.Error("model type must be part of the key")
	}
}

func TestPatternValidate(t *testing.T) {
	good := Pattern{F: []string{"a"}, V: []string{"b"}, Agg: countStar(), Model: regress.Const}
	if err := good.Validate(); err != nil {
		t.Errorf("valid pattern rejected: %v", err)
	}
	cases := []Pattern{
		{F: nil, V: []string{"b"}, Agg: countStar()},                                          // empty F
		{F: []string{"a"}, V: nil, Agg: countStar()},                                          // empty V
		{F: []string{"a"}, V: []string{"a"}, Agg: countStar()},                                // overlap
		{F: []string{"a"}, V: []string{"b"}, Agg: engine.AggSpec{Func: engine.Sum, Arg: "a"}}, // A ∈ F
		{F: []string{"a"}, V: []string{"b"}, Agg: engine.AggSpec{Func: engine.Sum}},           // sum(*)
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid pattern accepted: %s", i, p)
		}
	}
}

func TestRefines(t *testing.T) {
	base := Pattern{F: []string{"author"}, V: []string{"year"}, Agg: countStar(), Model: regress.Const}
	refined := Pattern{F: []string{"author", "venue"}, V: []string{"year"}, Agg: countStar(), Model: regress.Lin}
	if !refined.Refines(base) {
		t.Error("author,venue should refine author (model may differ)")
	}
	if !base.Refines(base) {
		t.Error("a pattern refines itself (F' ⊇ F)")
	}
	if base.Refines(refined) {
		t.Error("coarser pattern must not refine finer one")
	}
	otherV := Pattern{F: []string{"author", "venue"}, V: []string{"month"}, Agg: countStar(), Model: regress.Const}
	if otherV.Refines(base) {
		t.Error("different V must not refine")
	}
	otherAgg := Pattern{F: []string{"author", "venue"}, V: []string{"year"},
		Agg: engine.AggSpec{Func: engine.Sum, Arg: "cites"}, Model: regress.Const}
	if otherAgg.Refines(base) {
		t.Error("different aggregate must not refine")
	}
}

func TestGroupAttrs(t *testing.T) {
	p := Pattern{F: []string{"a", "b"}, V: []string{"c"}, Agg: countStar(), Model: regress.Const}
	got := p.GroupAttrs()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("GroupAttrs = %v", got)
	}
}

func TestThresholdsValidate(t *testing.T) {
	if err := DefaultThresholds().Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
	bad := []Thresholds{
		{Theta: -0.1, LocalSupport: 1, Lambda: 0.5, GlobalSupport: 1},
		{Theta: 1.1, LocalSupport: 1, Lambda: 0.5, GlobalSupport: 1},
		{Theta: 0.5, LocalSupport: 0, Lambda: 0.5, GlobalSupport: 1},
		{Theta: 0.5, LocalSupport: 1, Lambda: -1, GlobalSupport: 1},
		{Theta: 0.5, LocalSupport: 1, Lambda: 2, GlobalSupport: 1},
		{Theta: 0.5, LocalSupport: 1, Lambda: 0.5, GlobalSupport: 0},
	}
	for i, th := range bad {
		if err := th.Validate(); err == nil {
			t.Errorf("case %d: invalid thresholds accepted: %+v", i, th)
		}
	}
}

// TestHoldsGloballyBoundaries pins Definition 4's gate at its edges:
// good = Δ and confidence = λ exactly both hold; one less good
// fragment, a confidence just under λ, or no supported fragment do not.
func TestHoldsGloballyBoundaries(t *testing.T) {
	th := Thresholds{Theta: 0.5, LocalSupport: 3, Lambda: 0.5, GlobalSupport: 2}
	cases := []struct {
		name            string
		good, supported int
		wantConf        float64
		wantOK          bool
	}{
		{"good = Δ, conf = λ", 2, 4, 0.5, true},
		{"good = Δ − 1", 1, 1, 0, false},
		{"conf just under λ", 2, 5, 0.4, false},
		{"conf = 1", 3, 3, 1, true},
		{"supported = 0", 0, 0, 0, false},
		{"good = 0", 0, 4, 0, false},
	}
	for _, c := range cases {
		conf, ok := th.HoldsGlobally(c.good, c.supported)
		if ok != c.wantOK || conf != c.wantConf {
			t.Errorf("%s: HoldsGlobally(%d, %d) = (%g, %v), want (%g, %v)",
				c.name, c.good, c.supported, conf, ok, c.wantConf, c.wantOK)
		}
	}
	// λ = 0 and Δ = 1, the loosened gates shards mine under: every
	// candidate with a good fragment holds, none without.
	loose := Thresholds{Theta: 0.5, LocalSupport: 3, Lambda: 0, GlobalSupport: 1}
	if conf, ok := loose.HoldsGlobally(1, 7); !ok || conf != 1.0/7 {
		t.Errorf("loosened gate: (%g, %v), want (%g, true)", conf, ok, 1.0/7)
	}
	if _, ok := loose.HoldsGlobally(0, 7); ok {
		t.Error("loosened gate admits a candidate without a good fragment")
	}
}
