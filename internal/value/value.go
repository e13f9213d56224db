// Package value defines the dynamically typed scalar values that flow
// through the relational engine: 64-bit integers, 64-bit floats, strings,
// and NULL. Values are small immutable structs that are cheap to copy and
// compare; they carry their kind so operators can type-check lazily.
package value

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

const (
	// Null is the absence of a value. Nulls sort before everything else
	// and compare equal only to other nulls.
	Null Kind = iota
	// Int is a 64-bit signed integer.
	Int
	// Float is a 64-bit IEEE-754 float.
	Float
	// String is an arbitrary UTF-8 string.
	String
)

// String returns the kind name ("null", "int", "float", "string").
func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// V is a single scalar value. The zero V is NULL.
type V struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// NewNull returns the NULL value.
func NewNull() V { return V{} }

// NewInt wraps a 64-bit integer.
func NewInt(i int64) V { return V{kind: Int, i: i} }

// NewFloat wraps a 64-bit float.
func NewFloat(f float64) V { return V{kind: Float, f: f} }

// NewString wraps a string.
func NewString(s string) V { return V{kind: String, s: s} }

// Kind reports the runtime type of v.
func (v V) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v V) IsNull() bool { return v.kind == Null }

// Int returns the integer payload. It panics if v is not an Int.
func (v V) Int() int64 {
	if v.kind != Int {
		panic(fmt.Sprintf("value: Int() on %s value", v.kind))
	}
	return v.i
}

// Float returns the float payload. It panics if v is not a Float.
func (v V) Float() float64 {
	if v.kind != Float {
		panic(fmt.Sprintf("value: Float() on %s value", v.kind))
	}
	return v.f
}

// Str returns the string payload. It panics if v is not a String.
func (v V) Str() string {
	if v.kind != String {
		panic(fmt.Sprintf("value: Str() on %s value", v.kind))
	}
	return v.s
}

// AsFloat converts numeric values to float64. ok is false for NULL and
// String values.
func (v V) AsFloat() (f float64, ok bool) {
	switch v.kind {
	case Int:
		return float64(v.i), true
	case Float:
		return v.f, true
	default:
		return 0, false
	}
}

// IsNumeric reports whether v is an Int or a Float.
func (v V) IsNumeric() bool { return v.kind == Int || v.kind == Float }

// Compare orders two values as a total order whose equality is exactly
// AppendKey equality: NULL < numbers < strings; Int and Float compare
// exactly by numeric value (no float64 rounding, so distinct integers
// past 2^53 stay distinct, and Int(1) equals Float(1)); NaN equals NaN
// and sorts above every other number, as in PostgreSQL; -0.0 equals
// +0.0. The result is -1, 0 or +1.
func Compare(a, b V) int {
	if a.kind == Int && b.kind == Int {
		return cmp.Compare(a.i, b.i)
	}
	if a.IsNumeric() && b.IsNumeric() {
		switch {
		case a.kind == Float && b.kind == Float:
			return cmpFloat(a.f, b.f)
		case a.kind == Int:
			return cmpIntFloat(a.i, b.f)
		default:
			return -cmpIntFloat(b.i, a.f)
		}
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	if a.kind == String {
		return strings.Compare(a.s, b.s)
	}
	return 0 // NULL
}

// cmpFloat orders floats with NaN equal to itself and above +Inf.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	// At least one operand is NaN.
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	}
	return -1
}

// twoTo63 is 2^63, the first float past math.MaxInt64.
const twoTo63 = float64(1 << 63)

// cmpIntFloat compares an integer with a float exactly.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case f != f || f >= twoTo63: // NaN, +Inf and floats past MaxInt64
		return -1
	case f < -twoTo63:
		return 1
	}
	// f is in [-2^63, 2^63): its integral part converts exactly.
	t := math.Trunc(f)
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return cmpFloat(t, f) // the fractional part decides
}

// Equal reports whether two values are equal under Compare semantics,
// which is exactly equality of their AppendKey encodings.
func Equal(a, b V) bool { return Compare(a, b) == 0 }

// String renders the value for display. NULL renders as "∅".
func (v V) String() string {
	switch v.kind {
	case Null:
		return "∅"
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Float:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case String:
		return v.s
	default:
		return "?"
	}
}

// AppendKey appends a canonical, injective byte encoding of v to dst.
// The encoding is used as a hash key for grouping: two values produce
// identical encodings exactly when Compare reports them equal (Int(1)
// and Float(1) encode identically, as do -0.0 and +0.0, and every NaN).
func (v V) AppendKey(dst []byte) []byte {
	switch v.kind {
	case Null:
		return append(dst, 0x00)
	case Int:
		dst = append(dst, 0x01)
		return appendUint64(dst, uint64(v.i))
	case Float:
		// Encode integral floats exactly like the equivalent Int so that
		// grouping treats them as equal, matching Compare.
		if v.f == math.Trunc(v.f) && v.f >= -twoTo63 && v.f < twoTo63 {
			dst = append(dst, 0x01)
			return appendUint64(dst, uint64(int64(v.f)))
		}
		bits := math.Float64bits(v.f)
		if v.f != v.f {
			bits = canonicalNaN
		}
		dst = append(dst, 0x02)
		return appendUint64(dst, bits)
	case String:
		dst = append(dst, 0x03)
		dst = appendUint64(dst, uint64(len(v.s)))
		return append(dst, v.s...)
	default:
		panic("value: unknown kind")
	}
}

// canonicalNaN is the one key payload every NaN encodes to.
var canonicalNaN = math.Float64bits(math.NaN())

func appendUint64(dst []byte, u uint64) []byte {
	return append(dst,
		byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

// Parse converts a raw text token to the most specific value kind:
// empty string → NULL, integer syntax → Int, float syntax → Float,
// otherwise String.
func Parse(tok string) V {
	if tok == "" {
		return NewNull()
	}
	if i, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return NewInt(i)
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil {
		return NewFloat(f)
	}
	return NewString(tok)
}

// Tuple is an ordered list of values, positionally aligned with a schema.
type Tuple []V

// Clone returns a copy of t with its own backing array.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// AppendKey appends the canonical byte encoding of the whole tuple (the
// Key bytes) to dst and returns the extended slice, so hot paths can
// amortize one buffer across many keys.
func (t Tuple) AppendKey(dst []byte) []byte {
	for _, v := range t {
		dst = v.AppendKey(dst)
	}
	return dst
}

// Key returns the canonical byte encoding of the whole tuple, suitable
// for use as a map key via string conversion.
func (t Tuple) Key() string {
	return string(t.AppendKey(nil))
}

// Equal reports element-wise equality of two tuples.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !Equal(t[i], o[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically.
func (t Tuple) Compare(o Tuple) int {
	n := min(len(t), len(o))
	for i := 0; i < n; i++ {
		if c := Compare(t[i], o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(o):
		return -1
	case len(t) > len(o):
		return 1
	}
	return 0
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte(')')
	return sb.String()
}
