package pattern

import (
	"time"

	"cape/internal/engine"
	"cape/internal/regress"
	"cape/internal/value"
)

// Timers accumulates per-subtask wall-clock time during mining, feeding
// the Figure-4 breakdown (regression vs. query processing vs. the rest).
type Timers struct {
	Query      time.Duration // group-by / sort / cube evaluation
	Regression time.Duration // model fitting + goodness-of-fit
	Other      time.Duration // candidate enumeration, bookkeeping
}

// Add accumulates another Timers into t.
func (t *Timers) Add(o Timers) {
	t.Query += o.Query
	t.Regression += o.Regression
	t.Other += o.Other
}

// Total is the sum of all subtask durations.
func (t *Timers) Total() time.Duration { return t.Query + t.Regression + t.Other }

// EncodePredictors converts a tuple of predictor values to the float
// vector regression consumes. ok is false when any value is non-numeric
// (NULL or string) — such points cannot train a Lin model.
func EncodePredictors(vs value.Tuple) ([]float64, bool) {
	out := make([]float64, len(vs))
	for i, v := range vs {
		f, numeric := v.AsFloat()
		if !numeric {
			return nil, false
		}
		out[i] = f
	}
	return out, true
}

// FitShared evaluates, in a single scan of dSorted, every pattern that
// shares the partition attributes f and predictor attributes v: one
// candidate per (aggregate column, model type) combination. dSorted must
// be the result of grouping on f ∪ v, sorted by f then v, and must
// contain one column per aggregate in aggs named engine.AggSpec.String().
// The returned slice holds one *Mined per candidate that holds globally
// under th.
//
// FitShared is the convenience entry point: it builds a SharedFitter and
// scans dSorted in row order. Miners that evaluate many (F, V) splits
// over one grouped table construct a SharedFitter once and call its Fit
// with a sorted permutation instead.
func FitShared(f, v []string, aggs []engine.AggSpec, models []regress.ModelType,
	dSorted *engine.Table, th Thresholds, tm *Timers) ([]*Mined, error) {

	sf, err := NewSharedFitter(dSorted, aggs, models, th)
	if err != nil {
		return nil, err
	}
	return sf.Fit(f, v, nil, tm)
}

// SortedCopy returns the strings in ascending order without modifying
// the input. Pattern keys, fragment keys, and mining sort orders all use
// this canonical attribute order.
func SortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	sortStrings(out)
	return out
}

// Fit evaluates a single pattern against the relation r (ungrouped input
// data), running the grouping and sorting itself. It is the reference
// implementation used by tests and the naive miner.
func Fit(p Pattern, r *engine.Table, th Thresholds, tm *Timers) (*Mined, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	grouped, err := r.GroupBy(p.GroupAttrs(), []engine.AggSpec{p.Agg})
	if err != nil {
		return nil, err
	}
	if err := grouped.SortBy(p.GroupAttrs()); err != nil {
		return nil, err
	}
	if tm != nil {
		tm.Query += time.Since(t0)
	}
	res, err := FitShared(p.F, p.V, []engine.AggSpec{p.Agg},
		[]regress.ModelType{p.Model}, grouped, th, tm)
	if err != nil {
		return nil, err
	}
	if len(res) == 0 {
		return nil, nil
	}
	return res[0], nil
}
