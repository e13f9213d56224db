// Package pattern defines aggregate regression patterns (ARPs) — the core
// abstraction of the CAPE paper — and the machinery for deciding whether
// a pattern holds locally on a fragment and globally on a relation
// (Definitions 2–4). A pattern [F] : V ~M~> agg(A) partitions the result
// of grouping on F ∪ V by the partition attributes F and, within each
// fragment, models the aggregate as a function of the predictor
// attributes V with a regression model of type M.
package pattern

import (
	"fmt"
	"strings"

	"cape/internal/engine"
	"cape/internal/regress"
	"cape/internal/value"
)

// Pattern is an aggregate regression pattern (F, V, agg, A, M). F and V
// are disjoint non-empty attribute sets; Agg carries both the aggregate
// function and its argument A ("*" for count).
type Pattern struct {
	F     []string
	V     []string
	Agg   engine.AggSpec
	Model regress.ModelType
}

// GroupAttrs returns F ∪ V in F-then-V order (the grouping the pattern's
// retrieval queries use).
func (p Pattern) GroupAttrs() []string {
	out := make([]string, 0, len(p.F)+len(p.V))
	out = append(out, p.F...)
	out = append(out, p.V...)
	return out
}

// Key returns a canonical identity string for the pattern. Attribute
// order within F and within V is normalized.
func (p Pattern) Key() string {
	f := append([]string(nil), p.F...)
	v := append([]string(nil), p.V...)
	sortStrings(f)
	sortStrings(v)
	return strings.Join(f, ",") + "|" + strings.Join(v, ",") + "|" + p.Agg.String() + "|" + p.Model.String()
}

// String renders the paper's notation, e.g.
// "[author]: year ~Const~> count(*)".
func (p Pattern) String() string {
	return fmt.Sprintf("[%s]: %s ~%s~> %s",
		strings.Join(p.F, ","), strings.Join(p.V, ","), p.Model, p.Agg)
}

// Validate checks the structural constraints of Definition 2: F and V
// non-empty and disjoint, and the aggregate argument outside F ∪ V.
func (p Pattern) Validate() error {
	if len(p.F) == 0 || len(p.V) == 0 {
		return fmt.Errorf("pattern: F and V must be non-empty in %s", p)
	}
	seen := map[string]bool{}
	for _, a := range p.F {
		seen[a] = true
	}
	for _, a := range p.V {
		if seen[a] {
			return fmt.Errorf("pattern: attribute %q in both F and V of %s", a, p)
		}
		seen[a] = true
	}
	if !p.Agg.IsStar() && seen[p.Agg.Arg] {
		return fmt.Errorf("pattern: aggregate argument %q inside F ∪ V of %s", p.Agg.Arg, p)
	}
	if p.Agg.IsStar() && p.Agg.Func != engine.Count {
		return fmt.Errorf("pattern: %s requires an argument", p.Agg.Func)
	}
	return nil
}

// Refines reports whether p is a refinement of q per Definition 6:
// same V, same aggregate, and p's partition attributes form a strict or
// non-strict superset of q's.
func (p Pattern) Refines(q Pattern) bool {
	if p.Agg != q.Agg {
		return false
	}
	if !sameStringSet(p.V, q.V) {
		return false
	}
	return subsetOf(q.F, p.F)
}

// Thresholds bundles the four ARP thresholds: local model quality θ,
// local support δ, global confidence λ, and global support Δ.
type Thresholds struct {
	Theta         float64 // θ ∈ [0,1]: minimum goodness-of-fit
	LocalSupport  int     // δ: minimum distinct predictor points per fragment
	Lambda        float64 // λ ∈ [0,1]: minimum |frag_good| / |frag_supp|
	GlobalSupport int     // Δ: minimum |frag_good|
}

// DefaultThresholds mirrors the paper's experimental defaults scaled for
// small data: θ=0.5, δ=3, λ=0.5, Δ=2.
func DefaultThresholds() Thresholds {
	return Thresholds{Theta: 0.5, LocalSupport: 3, Lambda: 0.5, GlobalSupport: 2}
}

// Validate rejects out-of-range thresholds.
func (t Thresholds) Validate() error {
	if t.Theta < 0 || t.Theta > 1 {
		return fmt.Errorf("pattern: θ = %g outside [0,1]", t.Theta)
	}
	if t.Lambda < 0 || t.Lambda > 1 {
		return fmt.Errorf("pattern: λ = %g outside [0,1]", t.Lambda)
	}
	if t.LocalSupport < 1 {
		return fmt.Errorf("pattern: δ = %d must be ≥ 1", t.LocalSupport)
	}
	if t.GlobalSupport < 1 {
		return fmt.Errorf("pattern: Δ = %d must be ≥ 1", t.GlobalSupport)
	}
	return nil
}

// HoldsGlobally is Definition 4's global gate on a candidate's fragment
// evidence: good fragments with a local fit, out of supported ones. It
// holds when good ≥ Δ and the confidence good/supported ≥ λ, and it
// returns that confidence. A candidate without a good fragment never
// holds, whatever Δ says.
func (t Thresholds) HoldsGlobally(good, supported int) (conf float64, ok bool) {
	if good == 0 || supported == 0 || good < t.GlobalSupport {
		return 0, false
	}
	conf = float64(good) / float64(supported)
	return conf, conf >= t.Lambda
}

// LocalModel is the regression model under which a pattern holds locally
// on one fragment, together with the statistics the explanation stage
// needs.
type LocalModel struct {
	// Frag is the partition-attribute value f (aligned with Pattern.F).
	Frag value.Tuple
	// Model is the fitted regression model g_{P,f}.
	Model regress.Model
	// Support is |Q_{P,f}(R)|: the number of distinct predictor points.
	Support int
	// MaxPosDev and MaxNegDev are the extreme deviations
	// (observed − predicted) within the fragment.
	MaxPosDev, MaxNegDev float64
}

// Mined is a pattern that holds globally, with its local models and the
// aggregate statistics used for pruning during explanation generation.
type Mined struct {
	Pattern Pattern
	// Locals maps frag.Key() to the fragment's local model, for every
	// fragment the pattern holds locally on.
	Locals map[string]*LocalModel
	// NumFragments is |frag(R,P)|, NumSupported is |frag_supp|.
	NumFragments int
	NumSupported int
	// Confidence is |frag_good| / |frag_supp|.
	Confidence float64
	// MaxPosDev / MaxNegDev are deviation extremes across all local
	// models — the dev↑ bound of Section 3.5.
	MaxPosDev, MaxNegDev float64
}

// Local returns the local model for fragment f, if the pattern holds
// locally there.
func (m *Mined) Local(frag value.Tuple) (*LocalModel, bool) {
	lm, ok := m.Locals[frag.Key()]
	return lm, ok
}

// HoldsLocally reports whether the pattern holds locally on fragment f.
func (m *Mined) HoldsLocally(frag value.Tuple) bool {
	_, ok := m.Locals[frag.Key()]
	return ok
}

// GlobalSupport is |frag_good|.
func (m *Mined) GlobalSupport() int { return len(m.Locals) }

// SortedSet returns the distinct attributes of the given slices as one
// sorted slice — the canonical set form shared by the explain relevance
// index and refinement adjacency. The inputs are not modified.
func SortedSet(sets ...[]string) []string {
	n := 0
	for _, s := range sets {
		n += len(s)
	}
	out := make([]string, 0, n)
	for _, s := range sets {
		out = append(out, s...)
	}
	sortStrings(out)
	w := 0
	for i, a := range out {
		if i == 0 || a != out[i-1] {
			out[w] = a
			w++
		}
	}
	return out[:w]
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func sameStringSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	return subsetOf(a, b)
}

func subsetOf(a, b []string) bool {
	for _, x := range a {
		found := false
		for _, y := range b {
			if x == y {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
