package explain

import (
	"fmt"

	"cape/internal/engine"
	"cape/internal/pattern"
	"cape/internal/value"
)

// Explainer answers many questions over one relation and pattern set,
// reusing the aggregate query results that candidate enumeration scans
// and NORM reads. A fresh GenOpt call groups the relation for every
// pattern it visits; in an interactive session asking several questions,
// those group-bys are identical across questions, so the Explainer
// keeps each one as an engine.RetainedGroupBy. Results are stamped with
// the relation's epoch: after an append, each grouping folds the
// appended rows on its next use instead of regrouping the relation,
// while groupings the questions never revisit cost nothing. The
// relation must therefore be an engine.MutableRelation (a Table or a
// SegTable). The cache is sharded (concurrent questions needing
// different groupings do not contend on one lock) with singleflight
// duplicate suppression (N concurrent questions needing the same
// grouping compute it once). It is safe for concurrent use. An
// Explainer given a GroupingSource reads pattern groupings from it and
// caches only what the source declines.
type Explainer struct {
	r        engine.Relation
	patterns []*pattern.Mined
	opt      Options
	cache    *groupCache
	// idx is the structural relevance index over patterns, built at
	// construction and rebuilt by SetPatterns — the serve path's
	// load/admission-time index (questions never pay the build cost).
	// It is nil when the default options ask for LinearScan.
	idx *Index
}

// NewExplainer builds an explainer over the relation and mined patterns.
// The options supply defaults for every question; ExplainOpts' per-call
// options override fields that are set.
func NewExplainer(r engine.Relation, patterns []*pattern.Mined, opt Options) *Explainer {
	e := &Explainer{r: r, opt: opt.withDefaults(), cache: newGroupCache()}
	e.SetPatterns(patterns)
	return e
}

// Explain answers one question with the bound-pruned generator under the
// explainer's default options, reusing cached aggregate results across
// calls.
func (e *Explainer) Explain(q UserQuestion) ([]Explanation, *Stats, error) {
	return e.ExplainOpts(q, e.opt)
}

// ExplainOpts answers one question with per-call options: zero-valued
// fields fall back to the explainer's defaults. This is the shape a
// server needs — per-request K, metric, or parallelism while still
// sharing one warm group-by cache across every request for the table.
// The question's pairs run on a pool of the merged Parallelism's width.
func (e *Explainer) ExplainOpts(q UserQuestion, opt Options) ([]Explanation, *Stats, error) {
	return e.answer(q, opt, engine.NewPool(e.merged(opt).workers()))
}

// Question resolves a user question from its parts (Definition 1): it
// finds the tuple values in the result of the question query
// γ_{groupBy, agg}(R) and takes AggValue from it. That result is read
// from the explainer's cache at the relation's current epoch, like every
// grouping generation reads, so after an append it folds only the
// appended rows. The tuple is found by one probe of the grouping's key
// lookup and matches as SelectEq matches (Int and Float by numeric
// value, −0 = +0, NaN = NaN).
func (e *Explainer) Question(groupBy []string, agg engine.AggSpec, values value.Tuple, dir Direction) (UserQuestion, error) {
	mr, ok := e.r.(engine.MutableRelation)
	if !ok {
		return UserQuestion{}, errNotRetained(e.r)
	}
	grouped, err := e.cache.question(mr, groupBy, agg)
	if err != nil {
		return UserQuestion{}, err
	}
	aggValue, ok, err := grouped.find(groupBy, values)
	if err != nil {
		return UserQuestion{}, err
	}
	if !ok {
		return UserQuestion{}, fmt.Errorf("tuple %v is not a result of the question query", []value.V(values))
	}
	return UserQuestion{GroupBy: groupBy, Agg: agg, Values: values, AggValue: aggValue, Dir: dir}, nil
}

// answer runs the bound-pruned generation for one question on pool.
func (e *Explainer) answer(q UserQuestion, opt Options, pool *engine.Pool) ([]Explanation, *Stats, error) {
	g, rel, stats, err := e.prepare(q, opt)
	if err != nil {
		return nil, nil, err
	}
	expls, err := g.run(rel, stats, pool)
	if err != nil {
		return nil, nil, err
	}
	return expls, stats, nil
}

// prepare is every generator's setup: it validates q, overlays opt on
// the explainer's defaults, and finds the relevant patterns with their
// NORM factors over the shared group-by cache. The relevance index
// supplies the candidate patterns and the refinement lists unless
// LinearScan selects the reference scans of the whole pattern set. The
// index only prefilters: every candidate still runs the full
// per-question relevance check, so both paths produce identical entries
// in identical order. The lookup is in place before relevance runs,
// because NORM reads it.
func (e *Explainer) prepare(q UserQuestion, opt Options) (*generator, []relevantEntry, *Stats, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, nil, err
	}
	g := &generator{q: q, r: e.r, opt: e.merged(opt), lookup: e.cache.lookup(e.r)}
	patterns := e.patterns
	cands := patterns
	if g.opt.LinearScan {
		g.refine = func(m *pattern.Mined) []*pattern.Mined { return refinementsOf(m, patterns) }
	} else {
		g.refine = e.idx.Refinements
		cands = nil
		for _, pi := range e.idx.Relevant(q.GroupBy, q.Agg) {
			cands = append(cands, patterns[pi])
		}
	}
	stats := &Stats{}
	var rel []relevantEntry
	for _, m := range cands {
		re, ok, err := g.relevant(m)
		if err != nil {
			return nil, nil, nil, err
		}
		if ok {
			rel = append(rel, re)
			stats.RelevantPatterns++
		}
	}
	return g, rel, stats, nil
}

// merged overlays the set fields of opt onto the explainer defaults.
func (e *Explainer) merged(opt Options) Options {
	out := e.opt
	if opt.K > 0 {
		out.K = opt.K
	}
	if opt.Metric != nil {
		out.Metric = opt.Metric
	}
	if opt.Epsilon > 0 {
		out.Epsilon = opt.Epsilon
	}
	if opt.Parallelism != 0 {
		out.Parallelism = opt.Parallelism
	}
	if opt.DescendingNorm {
		out.DescendingNorm = true
	}
	if opt.LinearScan {
		out.LinearScan = true
	}
	return out
}

// CachedGroupings reports how many distinct aggregate results the
// explainer holds itself: every question grouping still cached (at most
// questionGroupings of them no pattern enumerates) plus the pattern
// groupings read so far that its GroupingSource, if any, declined.
func (e *Explainer) CachedGroupings() int {
	return e.cache.len()
}

// GroupingSource supplies the groupings an Explainer's patterns
// enumerate from retained state the Explainer does not own, such as a
// mining.Maintainer's. Grouping returns GroupBy's table of
// γ_{cols, aggs}(R) over the relation as it stands now, for aggregates
// aggs that include agg, with any column order; or false, and the
// Explainer computes the grouping itself. It is called concurrently.
type GroupingSource interface {
	Grouping(cols []string, agg engine.AggSpec) (*engine.Table, bool)
}

// SetGroupingSource makes src the first place the explainer reads
// pattern groupings from — NORM, drill-downs and batches alike — so it
// keeps only the question groupings and the pattern groupings src
// declines. Question queries stay on the explainer's own cache. Set it
// before the first question; nil restores the default, where the
// explainer computes and retains every grouping.
func (e *Explainer) SetGroupingSource(src GroupingSource) {
	e.cache.source = src
}

// SetPatterns swaps the pattern set the explainer answers from — the
// maintenance path after an append updates patterns without discarding
// the group-by cache (each grouping catches up lazily, on its next use,
// via the table epoch); groupings only the old set enumerated join the
// bounded question groupings. The caller must exclude concurrent
// Explain calls while swapping, as the server's append path does.
func (e *Explainer) SetPatterns(patterns []*pattern.Mined) {
	e.patterns = patterns
	e.cache.setPatterns(patterns)
	e.idx = nil
	if !e.opt.LinearScan {
		e.idx = NewIndex(patterns)
	}
}

// IndexStats reports the shape of the explainer's relevance index (zero
// when LinearScan is a default and no index is built).
func (e *Explainer) IndexStats() IndexStats {
	if e.idx == nil {
		return IndexStats{}
	}
	return e.idx.Stats()
}
