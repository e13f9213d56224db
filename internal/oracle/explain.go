package oracle

import (
	"slices"
	"sort"

	"cape/internal/distance"
	"cape/internal/value"
)

// Pattern is an aggregate regression pattern [F] : V ~> Agg as plain
// values, with its local models behind Local.
type Pattern struct {
	// Key is the pattern's identity string. Explanations deduplicate on
	// the refined pattern's Key and break ties on both Keys, as the
	// generators do.
	Key  string
	F, V []string
	Agg  Agg
	// Local returns the prediction function of the local model on
	// fragment frag (values aligned with F), or false when the pattern
	// does not hold locally there.
	Local func(frag value.Tuple) (predict func([]float64) float64, ok bool)
}

// Question is Definition 1's user question: the tuple Values of the
// query γ_{GroupBy, Agg}(R), asked about as surprisingly low (Low) or
// high.
type Question struct {
	GroupBy []string
	Values  value.Tuple
	Agg     Agg
	Low     bool
}

// Explanation is Definition 7's counterbalance (P, P', t') with the
// quantities Definition 10 scores it from.
type Explanation struct {
	Relevant, Refined Pattern
	// Attrs is F' then V; Tuple is t' over Attrs.
	Attrs     []string
	Tuple     value.Tuple
	AggValue  value.V
	Predicted float64
	Deviation float64
	Distance  float64
	Norm      float64
	Score     float64
}

func (e Explanation) key() string { return e.Refined.Key + "\x1e" + e.Tuple.Key() }

// Explain answers q over the relation whose columns are named cols:
// every (P, P') pair of a relevant pattern P (Definition 5) and a
// refinement P' (Definition 6), every tuple t' of γ_{F'∪V, agg}(R)
// tested against Definition 7's conditions 3–5 and scored by
// Definition 10 under metric with denominator guard eps. It keeps the
// best explanation per (P', t') — on equal scores the one with the
// smaller relevant-pattern Key — and returns the top k by score
// descending, then by (P'.Key, t'.Key). candidates is the number of
// tuples t' Algorithm 1 examines: the size of γ_{F'∪V, agg}(R) summed
// over the pairs.
func Explain(cols []string, rows []value.Tuple, q Question, patterns []Pattern,
	metric *distance.Metric, k int, eps float64) (expls []Explanation, candidates int) {
	at := func(attrs []string) []int {
		idx := make([]int, len(attrs))
		for i, a := range attrs {
			idx[i] = slices.Index(cols, a)
		}
		return idx
	}
	// t[attrs], or false when an attribute is not in the question.
	qProject := func(attrs []string) (value.Tuple, bool) {
		out := make(value.Tuple, len(attrs))
		for i, a := range attrs {
			j := slices.Index(q.GroupBy, a)
			if j < 0 {
				return nil, false
			}
			out[i] = q.Values[j]
		}
		return out, true
	}
	qDist := distance.Tuple{}
	for i, a := range q.GroupBy {
		qDist[a] = q.Values[i]
	}
	dir := 1.0 // Definition 10 scores a low question's upward deviations
	if !q.Low {
		dir = -1
	}

	best := map[string]Explanation{}
	var order []string // best's keys in first-offer order
	for _, p := range patterns {
		// Definition 5: same aggregate, F ∪ V ⊆ G, and P holds locally
		// on t[F].
		if p.Agg != q.Agg {
			continue
		}
		frag, okF := qProject(p.F)
		_, okV := qProject(p.V)
		if !okF || !okV {
			continue
		}
		if _, ok := p.Local(frag); !ok {
			continue
		}
		pAttrs := append(slices.Clone(p.F), p.V...)
		tPV, _ := qProject(pAttrs)
		norm := Norm(rows, at(pAttrs), tPV, q.Agg)

		for _, ref := range patterns {
			// Definition 6: same aggregate and V, F ⊆ F'.
			if ref.Agg != p.Agg || !sameSet(ref.V, p.V) || !subset(p.F, ref.F) {
				continue
			}
			attrs := append(slices.Clone(ref.F), ref.V...)
			var tOnAttrs value.Tuple
			if sameSet(attrs, q.GroupBy) {
				tOnAttrs, _ = qProject(attrs)
			}
			grouped := GroupBy(rows, at(attrs), []Agg{q.Agg})
			candidates += len(grouped)
			for _, g := range grouped {
				tup, y := g[:len(attrs)], g[len(attrs)]
				e, ok := counterbalance(q.Low, p, ref, attrs, tup, y, frag, tOnAttrs)
				if !ok {
					continue
				}
				e.Norm = norm
				dt := distance.Tuple{}
				for i, a := range attrs {
					dt[a] = tup[i]
				}
				e.Distance = metric.Distance(qDist, dt)
				e.Score = e.Deviation * dir / (e.Distance*norm + eps)
				key := e.key()
				old, seen := best[key]
				if !seen {
					order = append(order, key)
				}
				if !seen || e.Score > old.Score || e.Score == old.Score && e.Relevant.Key < old.Relevant.Key {
					best[key] = e
				}
			}
		}
	}

	for _, key := range order {
		expls = append(expls, best[key])
	}
	sort.SliceStable(expls, func(i, j int) bool {
		if expls[i].Score != expls[j].Score {
			return expls[i].Score > expls[j].Score
		}
		return expls[i].key() < expls[j].key()
	})
	if len(expls) > k {
		expls = expls[:k]
	}
	return expls, candidates
}

// counterbalance tests Definition 7's conditions 3–5 for the tuple tup
// over attrs (F' then V) with aggregate value y, for a question asked
// as low or high about the fragment frag = t[F]; tOnAttrs is t[attrs] when attrs is the
// question's own schema, else nil. The distance, NORM and score are
// left to the caller.
func counterbalance(low bool, p, ref Pattern, attrs []string, tup value.Tuple, y value.V, frag, tOnAttrs value.Tuple) (Explanation, bool) {
	// Condition 4: t'[F] = t[F].
	for i, a := range p.F {
		if !value.Equal(tup[slices.Index(attrs, a)], frag[i]) {
			return Explanation{}, false
		}
	}
	// Condition 3: P' holds locally on t'[F'].
	predict, ok := ref.Local(tup[:len(ref.F)])
	if !ok {
		return Explanation{}, false
	}
	// Condition 5: t' deviates from P''s prediction opposite to the
	// question's direction.
	yf, ok := y.AsFloat()
	if !ok {
		return Explanation{}, false
	}
	x := make([]float64, len(ref.V))
	for i := range ref.V {
		f, ok := tup[len(ref.F)+i].AsFloat()
		if !ok {
			x = nil
			break
		}
		x[i] = f
	}
	pred := predict(x)
	dev := yf - pred
	if low && dev <= 0 || !low && dev >= 0 {
		return Explanation{}, false
	}
	// Condition 4: t' ≠ t when t' has the question's own schema.
	if tOnAttrs != nil && tup.Equal(tOnAttrs) {
		return Explanation{}, false
	}
	return Explanation{Relevant: p, Refined: ref, Attrs: attrs, Tuple: tup,
		AggValue: y, Predicted: pred, Deviation: dev}, true
}

// subset reports a ⊆ b.
func subset(a, b []string) bool {
	for _, x := range a {
		if !slices.Contains(b, x) {
			return false
		}
	}
	return true
}

func sameSet(a, b []string) bool { return len(a) == len(b) && subset(a, b) }
