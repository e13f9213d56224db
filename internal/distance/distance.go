// Package distance implements the tuple-distance model of Definition 9 in
// the CAPE paper: per-attribute distance functions with values in [0, 1],
// per-attribute weights, and a weighted L2 tuple distance that remains
// comparable across tuples with different schemas by charging the maximal
// distance 1 for attributes present in only one of the two tuples and
// normalizing by the total weight of the union.
package distance

import (
	"math"
	"slices"

	"cape/internal/value"
)

// Func measures the distance between two values of a single attribute.
// Implementations must be symmetric, return values in [0, 1], and return
// 0 for equal values.
type Func interface {
	Distance(a, b value.V) float64
}

// Categorical treats every pair of distinct values as maximally distant.
type Categorical struct{}

// Distance returns 0 when a equals b, 1 otherwise.
func (Categorical) Distance(a, b value.V) float64 {
	if value.Equal(a, b) {
		return 0
	}
	return 1
}

// Numeric scales the absolute difference of two numeric values by Scale,
// capping at 1. Non-numeric operands that are unequal are maximally
// distant. A Scale of 4, say, makes values 4 or more apart maximally
// distant — suitable for year-like attributes where adjacency matters.
type Numeric struct {
	Scale float64
}

// Distance returns min(1, |a−b| / Scale).
func (n Numeric) Distance(a, b value.V) float64 {
	if value.Equal(a, b) {
		return 0
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if !aok || !bok {
		return 1
	}
	scale := n.Scale
	if scale <= 0 {
		scale = 1
	}
	d := math.Abs(af-bf) / scale
	if !(d <= 1) { // also NaN: a NaN operand is maximally distant
		return 1
	}
	return d
}

// Classed partitions an attribute's domain into named classes — the
// paper's default distance: two values in the same class are close
// (WithinClass), values in different classes are maximally distant, and
// equal values have distance 0. Values absent from the mapping form an
// implicit class of their own.
type Classed struct {
	// Class maps the rendered value (value.V.String()) to its class name.
	Class map[string]string
	// WithinClass is the distance of two distinct same-class values.
	WithinClass float64
}

// Distance implements Func.
func (c Classed) Distance(a, b value.V) float64 {
	if value.Equal(a, b) {
		return 0
	}
	ca, aok := c.Class[a.String()]
	cb, bok := c.Class[b.String()]
	if aok && bok && ca == cb {
		return c.WithinClass
	}
	return 1
}

// Metric bundles the per-attribute functions and weights into the tuple
// distance of Definition 9.
type Metric struct {
	// Funcs maps attribute name to its distance function; attributes not
	// present use Default.
	Funcs map[string]Func
	// Weights maps attribute name to its weight w_A; attributes not
	// present weigh DefaultWeight. The normalization factor W makes only
	// relative weights matter.
	Weights map[string]float64
	// Default is the distance function for unlisted attributes
	// (Categorical when nil).
	Default Func
	// DefaultWeight is the weight of unlisted attributes (1 when 0).
	DefaultWeight float64
}

// NewMetric returns a metric with categorical distance and equal weights
// everywhere.
func NewMetric() *Metric {
	return &Metric{Funcs: map[string]Func{}, Weights: map[string]float64{}}
}

// SetFunc assigns the distance function of one attribute and returns the
// metric for chaining.
func (m *Metric) SetFunc(attr string, f Func) *Metric {
	if m.Funcs == nil {
		m.Funcs = map[string]Func{}
	}
	m.Funcs[attr] = f
	return m
}

// SetWeight assigns the weight of one attribute and returns the metric.
func (m *Metric) SetWeight(attr string, w float64) *Metric {
	if m.Weights == nil {
		m.Weights = map[string]float64{}
	}
	m.Weights[attr] = w
	return m
}

func (m *Metric) funcFor(attr string) Func {
	if m != nil && m.Funcs != nil {
		if f, ok := m.Funcs[attr]; ok {
			return f
		}
	}
	if m != nil && m.Default != nil {
		return m.Default
	}
	return Categorical{}
}

// WeightOf returns the weight of an attribute under the metric.
func (m *Metric) WeightOf(attr string) float64 {
	if m != nil && m.Weights != nil {
		if w, ok := m.Weights[attr]; ok {
			return w
		}
	}
	if m != nil && m.DefaultWeight > 0 {
		return m.DefaultWeight
	}
	return 1
}

// Tuple is a schema-tagged tuple: attribute name → value. Tuples passed
// to Distance may have different attribute sets.
type Tuple map[string]value.V

// Distance computes Definition 9:
//
//	d(t1, t2) = sqrt( (1/W) Σ_{A ∈ T1 ∪ T2} w_A · d_A^exists(t1, t2)² )
//
// where d_A^exists is the attribute distance when A appears in both
// tuples and the maximal distance 1 otherwise, and W = Σ_{A ∈ T1∪T2} w_A.
//
// The terms are summed in ascending attribute-name order, so the result
// does not depend on map iteration order, bits included.
func (m *Metric) Distance(t1, t2 Tuple) float64 {
	var buf [16]string
	attrs := buf[:0]
	for attr := range t1 {
		attrs = append(attrs, attr)
	}
	for attr := range t2 {
		if _, ok := t1[attr]; !ok {
			attrs = append(attrs, attr)
		}
	}
	slices.Sort(attrs)
	var sum, w float64
	for _, attr := range attrs {
		wa := m.WeightOf(attr)
		w += wa
		v1, ok1 := t1[attr]
		v2, ok2 := t2[attr]
		if ok1 && ok2 {
			d := m.funcFor(attr).Distance(v1, v2)
			sum += wa * d * d
		} else {
			sum += wa
		}
	}
	if w == 0 {
		return 0
	}
	return math.Sqrt(sum / w)
}

// LowerBound computes the smallest possible Distance between a tuple with
// attribute set attrs1 and one with attribute set attrs2, achieved when
// every shared attribute has distance 0: only the symmetric difference
// contributes (at the maximal per-attribute distance 1). This is the
// d↓(φ, P') bound of Section 3.5.
func (m *Metric) LowerBound(attrs1, attrs2 []string) float64 {
	in1 := make(map[string]bool, len(attrs1))
	for _, a := range attrs1 {
		in1[a] = true
	}
	in2 := make(map[string]bool, len(attrs2))
	for _, a := range attrs2 {
		in2[a] = true
	}
	var sum, w float64
	for _, a := range attrs1 {
		wa := m.WeightOf(a)
		w += wa
		if !in2[a] {
			sum += wa
		}
	}
	for _, a := range attrs2 {
		if in1[a] {
			continue
		}
		wa := m.WeightOf(a)
		w += wa
		sum += wa
	}
	if w == 0 {
		return 0
	}
	return math.Sqrt(sum / w)
}
