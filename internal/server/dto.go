package server

import (
	"fmt"
	"strings"

	"cape/internal/distance"
	"cape/internal/engine"
	"cape/internal/explain"
	"cape/internal/pattern"
	"cape/internal/value"
)

// ExplainRequest is the body of POST /v1/explain (with Patterns set) and
// POST /v1/baseline (with Table set).
type ExplainRequest struct {
	// Patterns names a pattern set from /v1/mine (explain only).
	Patterns string `json:"patterns,omitempty"`
	// Table names a loaded table (baseline only; explain takes the table
	// from the pattern set).
	Table string `json:"table,omitempty"`
	// GroupBy + Aggregate + Tuple + Dir define the user question. Tuple
	// values are rendered strings, parsed with the CSV value rules.
	GroupBy   []string `json:"groupBy"`
	Aggregate string   `json:"aggregate,omitempty"` // e.g. "count(*)", "sum(x)"; default count(*)
	Tuple     []string `json:"tuple"`
	Dir       string   `json:"dir"`
	K         int      `json:"k,omitempty"`
	// Parallelism overrides the server's default explanation worker
	// count for this request; 0 keeps the default, 1 forces sequential.
	Parallelism int `json:"parallelism,omitempty"`
	// Numeric maps attribute names to numeric-distance scales.
	Numeric map[string]float64 `json:"numeric,omitempty"`
	// Weights maps attribute names to metric weights.
	Weights map[string]float64 `json:"weights,omitempty"`
	// Expected is the target aggregate value for /v1/intervene (ignored
	// elsewhere); 0 keeps the default, the average of the other groups.
	Expected float64 `json:"expected,omitempty"`
}

// build validates the request against the table and produces the
// question plus explanation options.
func (r ExplainRequest) build(tab *engine.Table) (explain.UserQuestion, explain.Options, error) {
	q, err := newQuestionBuilder(tab).build(QuestionSpec{
		GroupBy: r.GroupBy, Aggregate: r.Aggregate, Tuple: r.Tuple, Dir: r.Dir,
	})
	if err != nil {
		return q, explain.Options{}, err
	}
	metric, err := buildMetric(r.Numeric, r.Weights)
	if err != nil {
		return q, explain.Options{}, err
	}
	return q, explain.Options{K: r.K, Metric: metric, Parallelism: r.Parallelism}, nil
}

// QuestionSpec is the wire form of one user question: the shape shared
// by ExplainRequest (inline) and ExplainBatchRequest (one per item).
type QuestionSpec struct {
	GroupBy   []string `json:"groupBy"`
	Aggregate string   `json:"aggregate,omitempty"` // e.g. "count(*)", "sum(x)"; default count(*)
	Tuple     []string `json:"tuple"`
	Dir       string   `json:"dir"`
}

// questionBuilder resolves question specs against one table. The
// aggregate query results used to verify that each tuple is an actual
// answer are memoized, so a batch of questions over the same group-by
// runs that query once, not once per item.
type questionBuilder struct {
	tab  *engine.Table
	memo map[string]*engine.Table
}

func newQuestionBuilder(tab *engine.Table) *questionBuilder {
	return &questionBuilder{tab: tab, memo: make(map[string]*engine.Table)}
}

// build validates one spec and resolves its aggregate value from the
// question query's result.
func (b *questionBuilder) build(spec QuestionSpec) (explain.UserQuestion, error) {
	var q explain.UserQuestion
	if len(spec.GroupBy) == 0 || len(spec.Tuple) != len(spec.GroupBy) {
		return q, fmt.Errorf("groupBy and tuple must be non-empty and the same length")
	}
	dir, err := explain.ParseDirection(spec.Dir)
	if err != nil {
		return q, err
	}
	agg, err := engine.ParseAggSpec(spec.Aggregate)
	if err != nil {
		return q, err
	}

	memoKey := strings.Join(spec.GroupBy, "\x1f") + "\x1e" + agg.String()
	grouped, ok := b.memo[memoKey]
	if !ok {
		grouped, err = b.tab.GroupBy(spec.GroupBy, []engine.AggSpec{agg})
		if err != nil {
			return q, err
		}
		b.memo[memoKey] = grouped
	}

	vals := make(value.Tuple, len(spec.Tuple))
	for i, raw := range spec.Tuple {
		vals[i] = value.Parse(raw)
	}
	for _, row := range grouped.Rows() {
		if value.Tuple(row[:len(spec.GroupBy)]).Equal(vals) {
			return explain.UserQuestion{
				GroupBy: spec.GroupBy, Agg: agg, Values: vals,
				AggValue: row[len(spec.GroupBy)], Dir: dir,
			}, nil
		}
	}
	return q, fmt.Errorf("tuple %v is not a result of the question query", spec.Tuple)
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

// tableDTO renders a relation as column names plus stringified rows.
func tableDTO(t *engine.Table) map[string]interface{} {
	cols := t.Schema().Names()
	rows := make([][]string, t.NumRows())
	for i, r := range t.Rows() {
		cells := make([]string, len(r))
		for j, v := range r {
			if v.IsNull() {
				cells[j] = ""
			} else {
				cells[j] = v.String()
			}
		}
		rows[i] = cells
	}
	return map[string]interface{}{"columns": cols, "rows": rows}
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

// generalizationDTO is the wire form of one drill-up explanation.
type generalizationDTO struct {
	Attrs     []string `json:"attrs"`
	Tuple     []string `json:"tuple"`
	AggValue  string   `json:"aggValue"`
	Predicted float64  `json:"predicted"`
	Deviation float64  `json:"deviation"`
	Score     float64  `json:"score"`
	Pattern   string   `json:"pattern"`
}

func newGeneralizationDTO(g explain.Generalization) generalizationDTO {
	tuple := make([]string, len(g.Tuple))
	for i, v := range g.Tuple {
		tuple[i] = v.String()
	}
	return generalizationDTO{
		Attrs: g.Attrs, Tuple: tuple, AggValue: g.AggValue.String(),
		Predicted: g.Predicted, Deviation: g.Deviation, Score: g.Score,
		Pattern: g.Pattern.String(),
	}
}
