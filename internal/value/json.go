package value

import (
	"encoding/json"
	"fmt"
	"math"
)

// jsonValue is the wire representation of a V: the kind tag keeps
// int64(3) and float64(3) and "3" distinguishable across a round trip.
// JSON numbers cannot carry NaN or ±Inf, so a non-finite float travels
// as a string payload ("NaN", "+Inf", "-Inf") in S.
type jsonValue struct {
	Kind string  `json:"k"`
	Int  int64   `json:"i,omitempty"`
	F    float64 `json:"f,omitempty"`
	S    string  `json:"s,omitempty"`
}

// MarshalJSON encodes the value with an explicit kind tag.
func (v V) MarshalJSON() ([]byte, error) {
	jv := jsonValue{Kind: v.kind.String()}
	switch v.kind {
	case Int:
		jv.Int = v.i
	case Float:
		switch {
		case math.IsNaN(v.f):
			jv.S = "NaN"
		case math.IsInf(v.f, 1):
			jv.S = "+Inf"
		case math.IsInf(v.f, -1):
			jv.S = "-Inf"
		default:
			jv.F = v.f
		}
	case String:
		jv.S = v.s
	}
	return json.Marshal(jv)
}

// UnmarshalJSON decodes a kind-tagged value.
func (v *V) UnmarshalJSON(data []byte) error {
	var jv jsonValue
	if err := json.Unmarshal(data, &jv); err != nil {
		return err
	}
	switch jv.Kind {
	case "null":
		*v = NewNull()
	case "int":
		*v = NewInt(jv.Int)
	case "float":
		switch jv.S {
		case "":
			*v = NewFloat(jv.F)
		case "NaN":
			*v = NewFloat(math.NaN())
		case "+Inf":
			*v = NewFloat(math.Inf(1))
		case "-Inf":
			*v = NewFloat(math.Inf(-1))
		default:
			return fmt.Errorf("value: bad non-finite float payload %q in JSON", jv.S)
		}
	case "string":
		*v = NewString(jv.S)
	default:
		return fmt.Errorf("value: unknown kind %q in JSON", jv.Kind)
	}
	return nil
}
