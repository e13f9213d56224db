package server

import (
	"fmt"

	"cape/internal/distance"
	"cape/internal/engine"
	"cape/internal/explain"
	"cape/internal/pattern"
	"cape/internal/value"
)

// ExplainRequest is the body of POST /v1/explain.
type ExplainRequest struct {
	// Patterns names a pattern set from /v1/mine; the question runs
	// over that set's table.
	Patterns string `json:"patterns,omitempty"`
	// GroupBy + Aggregate + Tuple + Dir define the user question. Tuple
	// values are rendered strings, parsed with the CSV value rules.
	GroupBy   []string `json:"groupBy"`
	Aggregate string   `json:"aggregate,omitempty"` // e.g. "count(*)", "sum(x)"; default count(*)
	Tuple     []string `json:"tuple"`
	Dir       string   `json:"dir"`
	// K is the number of explanations, at most maxExplainK.
	K int `json:"k,omitempty"`
	// Parallelism overrides the server's default explanation worker
	// count for this request; 0 keeps the default, 1 forces sequential,
	// and values above GOMAXPROCS are clamped to it.
	Parallelism int `json:"parallelism,omitempty"`
	// Numeric maps attribute names to numeric-distance scales.
	Numeric map[string]float64 `json:"numeric,omitempty"`
	// Weights maps attribute names to metric weights.
	Weights map[string]float64 `json:"weights,omitempty"`
}

// build validates the request, resolves its question with ex and
// produces the question plus explanation options.
func (r ExplainRequest) build(ex *explain.Explainer) (explain.UserQuestion, explain.Options, error) {
	q, err := r.spec().question(ex)
	if err != nil {
		return q, explain.Options{}, err
	}
	metric, err := buildMetric(r.Numeric, r.Weights)
	if err != nil {
		return q, explain.Options{}, err
	}
	return q, explain.Options{K: r.K, Metric: metric, Parallelism: r.Parallelism}, nil
}

// spec is the request's inline question.
func (r ExplainRequest) spec() QuestionSpec {
	return QuestionSpec{GroupBy: r.GroupBy, Aggregate: r.Aggregate, Tuple: r.Tuple, Dir: r.Dir}
}

// QuestionSpec is the wire form of one user question: the shape shared
// by ExplainRequest (inline) and ExplainBatchRequest (one per item).
type QuestionSpec struct {
	GroupBy   []string `json:"groupBy"`
	Aggregate string   `json:"aggregate,omitempty"` // e.g. "count(*)", "sum(x)"; default count(*)
	Tuple     []string `json:"tuple"`
	Dir       string   `json:"dir"`
}

// question validates the spec and resolves it with ex, which finds the
// tuple in the result of the question query.
func (spec QuestionSpec) question(ex *explain.Explainer) (explain.UserQuestion, error) {
	if len(spec.GroupBy) == 0 || len(spec.Tuple) != len(spec.GroupBy) {
		return explain.UserQuestion{}, fmt.Errorf("groupBy and tuple must be non-empty and the same length")
	}
	dir, err := explain.ParseDirection(spec.Dir)
	if err != nil {
		return explain.UserQuestion{}, err
	}
	agg, err := engine.ParseAggSpec(spec.Aggregate)
	if err != nil {
		return explain.UserQuestion{}, err
	}
	vals := make(value.Tuple, len(spec.Tuple))
	for i, raw := range spec.Tuple {
		vals[i] = value.Parse(raw)
	}
	return ex.Question(spec.GroupBy, agg, vals, dir)
}

// buildMetric turns the request's numeric-scale and weight maps into a
// distance metric.
func buildMetric(numeric, weights map[string]float64) (*distance.Metric, error) {
	metric := distance.NewMetric()
	for attr, scale := range numeric {
		if scale <= 0 {
			return nil, fmt.Errorf("numeric scale for %q must be positive", attr)
		}
		metric.SetFunc(attr, distance.Numeric{Scale: scale})
	}
	for attr, weight := range weights {
		if weight < 0 {
			return nil, fmt.Errorf("weight for %q must be non-negative", attr)
		}
		metric.SetWeight(attr, weight)
	}
	return metric, nil
}

// patternDTO is the wire form of a mined pattern summary. Key is the
// pattern's canonical identity (pattern.Key()); the shard coordinator
// matches per-shard candidate stats and admission decisions on it.
type patternDTO struct {
	Pattern    string  `json:"pattern"`
	Key        string  `json:"key"`
	Confidence float64 `json:"confidence"`
	Locals     int     `json:"localModels"`
	Supported  int     `json:"supportedFragments"`
	Fragments  int     `json:"fragments"`
}

func newPatternDTO(m *pattern.Mined) patternDTO {
	return patternDTO{
		Pattern:    m.Pattern.String(),
		Key:        m.Pattern.Key(),
		Confidence: m.Confidence,
		Locals:     m.GlobalSupport(),
		Supported:  m.NumSupported,
		Fragments:  m.NumFragments,
	}
}

// explanationDTO is the wire form of one ranked counterbalance. SortKey
// carries the engine's deterministic tie-break identity (refined
// pattern key + candidate tuple key): the list is ordered by score
// descending, ties broken by SortKey ascending — the total order
// explain's own heap uses.
type explanationDTO struct {
	Attrs     []string `json:"attrs"`
	Tuple     []string `json:"tuple"`
	AggValue  string   `json:"aggValue"`
	Predicted float64  `json:"predicted"`
	Deviation float64  `json:"deviation"`
	Distance  float64  `json:"distance"`
	Score     float64  `json:"score"`
	Relevant  string   `json:"relevantPattern"`
	Refined   string   `json:"refinedPattern"`
	SortKey   string   `json:"sortKey"`
	Narration string   `json:"narration"`
}

func newExplanationDTO(e explain.Explanation, q explain.UserQuestion) explanationDTO {
	tuple := make([]string, len(e.Tuple))
	for i, v := range e.Tuple {
		tuple[i] = v.String()
	}
	return explanationDTO{
		Attrs:     e.Attrs,
		Tuple:     tuple,
		AggValue:  e.AggValue.String(),
		Predicted: e.Predicted,
		Deviation: e.Deviation,
		Distance:  e.Distance,
		Score:     e.Score,
		Relevant:  e.Relevant.String(),
		Refined:   e.Refined.String(),
		SortKey:   e.Refined.Key() + "\x1e" + e.Tuple.Key(),
		Narration: e.Narrate(q),
	}
}
