package value

import (
	"encoding/json"
	"math"
	"testing"
)

func TestValueJSONRoundTrip(t *testing.T) {
	vals := []V{NewNull(), NewInt(-7), NewInt(0), NewFloat(2.5), NewString(""), NewString("SIGKDD"),
		NewFloat(math.NaN()), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1))}
	for _, v := range vals {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var back V
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back.Kind() != v.Kind() || !Equal(back, v) {
			t.Errorf("round trip %v -> %s -> %v", v, data, back)
		}
	}
}

func TestTupleJSONRoundTrip(t *testing.T) {
	tup := Tuple{NewString("AX"), NewInt(2007), NewNull()}
	data, err := json.Marshal(tup)
	if err != nil {
		t.Fatal(err)
	}
	var back Tuple
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(tup) {
		t.Errorf("tuple round trip: %v vs %v", back, tup)
	}
}

func TestValueJSONErrors(t *testing.T) {
	var v V
	if err := json.Unmarshal([]byte(`{"k":"complex"}`), &v); err == nil {
		t.Error("unknown kind should error")
	}
	if err := json.Unmarshal([]byte(`{"k":"float","s":"2.5"}`), &v); err == nil {
		t.Error("finite float in the string payload should error")
	}
	if err := json.Unmarshal([]byte(`42`), &v); err == nil {
		t.Error("non-object should error")
	}
}

func TestIntFloatDistinguishedInJSON(t *testing.T) {
	i, _ := json.Marshal(NewInt(3))
	f, _ := json.Marshal(NewFloat(3))
	if string(i) == string(f) {
		t.Error("Int(3) and Float(3) must serialize distinctly (kind tag)")
	}
}

// TestNonFiniteFloatJSON pins the wire form of NaN and ±Inf: JSON
// numbers cannot carry them, so they travel as a string payload.
func TestNonFiniteFloatJSON(t *testing.T) {
	cases := map[float64]string{
		math.NaN():   `{"k":"float","s":"NaN"}`,
		math.Inf(1):  `{"k":"float","s":"+Inf"}`,
		math.Inf(-1): `{"k":"float","s":"-Inf"}`,
	}
	for f, want := range cases {
		got, err := json.Marshal(NewFloat(f))
		if err != nil {
			t.Fatalf("marshal %v: %v", f, err)
		}
		if string(got) != want {
			t.Errorf("marshal %v = %s, want %s", f, got, want)
		}
	}
}
