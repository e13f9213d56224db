package explain

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"cape/internal/engine"
	"cape/internal/pattern"
	"cape/internal/value"
)

// Generalization is an explanation by drill-up — the combination the
// paper's conclusion names as future work ("a unified system that
// combines explanations through counterbalance with explanations through
// generalization/specialization"). A generalization shows that a coarser
// aggregate derived from the question by dropping group-by attributes
// deviates in the *same* direction as the question: "AX's SIGKDD 2007
// count is low — and so is AX's total 2007 output", telling the user the
// outcome reflects a broader phenomenon rather than a venue-local shift.
type Generalization struct {
	// Pattern is the mined ARP whose local model supplies the
	// prediction.
	Pattern pattern.Pattern
	// Attrs/Tuple identify the coarser group: the question's values on
	// the pattern's F ∪ V.
	Attrs []string
	Tuple value.Tuple
	// AggValue is the coarser group's actual aggregate; Predicted the
	// local model's prediction for it.
	AggValue  value.V
	Predicted float64
	// Deviation = actual − predicted; its sign matches the question's
	// direction (negative for low questions).
	Deviation float64
	// Score is the relative deviation |dev| / (|predicted| + ε); higher
	// means the coarser aggregate is further from its own trend.
	Score float64
}

// String renders "(author=AX, year=2007) count(*)=46 is 14.00 below its
// trend (60.00) via [author]: year ...".
func (g Generalization) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, a := range g.Attrs {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s=%s", a, g.Tuple[i])
	}
	dir := "above"
	if g.Deviation < 0 {
		dir = "below"
	}
	fmt.Fprintf(&sb, ") %s=%s is %.2f %s its trend (%.2f) via %s",
		g.Pattern.Agg, g.AggValue, math.Abs(g.Deviation), dir, g.Predicted, g.Pattern)
	return sb.String()
}

// Generalize finds the question's same-direction deviations at coarser
// granularities: for every mined pattern whose attributes are a strict
// subset of the question's group-by (and whose aggregate matches), it
// compares the question's coarser aggregate against the pattern's local
// model and reports deviations in the question's direction, strongest
// relative deviation first. It is NewExplainer(r, patterns,
// opt).Generalize(q, opt).
func Generalize(q UserQuestion, r engine.Relation, patterns []*pattern.Mined, opt Options) ([]Generalization, error) {
	return NewExplainer(r, patterns, opt).Generalize(q, opt)
}

// Generalize is the package-level Generalize over the explainer's
// pattern set, with per-call options as in ExplainOpts. A pattern's
// coarser aggregate is the question's row of γ_{F∪V, agg}(R) — the
// grouping the pattern enumerates — so it is read from the explainer's
// retained groupings, never from a scan of the relation.
func (e *Explainer) Generalize(q UserQuestion, opt Options) ([]Generalization, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	opt = e.merged(opt)
	var out []Generalization
	for _, m := range e.patterns {
		p := m.Pattern
		if p.Agg != q.Agg {
			continue
		}
		attrs := p.GroupAttrs()
		if len(attrs) >= len(q.GroupBy) {
			continue // not strictly coarser
		}
		tuple, ok := q.Project(attrs)
		if !ok {
			continue // uses attributes outside the question
		}
		frag, _ := q.Project(p.F)
		lm, ok := m.Local(frag)
		if !ok {
			continue
		}
		grouped, err := e.cache.entry(e.r, p)
		if err != nil {
			return nil, err
		}
		actualV, ok, err := grouped.find(attrs, tuple)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		actual, numeric := actualV.AsFloat()
		if !numeric {
			continue
		}
		vVals, _ := q.Project(p.V)
		var pred float64
		if enc, ok := pattern.EncodePredictors(vVals); ok {
			pred = lm.Model.Predict(enc)
		} else {
			pred = lm.Model.Predict(nil)
		}
		dev := actual - pred
		if (q.Dir == Low && dev >= 0) || (q.Dir == High && dev <= 0) {
			continue // deviates against (or not at all in) the question's direction
		}
		out = append(out, Generalization{
			Pattern:   p,
			Attrs:     attrs,
			Tuple:     tuple,
			AggValue:  actualV,
			Predicted: pred,
			Deviation: dev,
			Score:     math.Abs(dev) / (math.Abs(pred) + opt.Epsilon),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Pattern.Key() < out[j].Pattern.Key()
	})
	if len(out) > opt.K {
		out = out[:opt.K]
	}
	return out, nil
}
