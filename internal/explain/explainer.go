package explain

import (
	"cape/internal/engine"
	"cape/internal/pattern"
)

// Explainer answers many questions over one relation and pattern set,
// reusing the aggregate query results that candidate enumeration scans
// and NORM reads. A fresh Generate call re-groups the relation for every
// pattern it visits; in an interactive session asking several questions,
// those group-bys are identical across questions, so the Explainer
// caches them. Results are stamped with the relation's epoch: after an
// append, each grouping recomputes on its next use, while groupings the
// questions never revisit cost nothing. The cache is sharded (concurrent
// questions needing different groupings do not contend on one lock)
// with singleflight duplicate suppression (N concurrent questions
// needing the same grouping compute it once). It is safe for concurrent
// use.
type Explainer struct {
	r        engine.Relation
	patterns []*pattern.Mined
	opt      Options
	cache    *groupCache
	// idx is the structural relevance index over patterns, built at
	// construction and rebuilt by SetPatterns — the serve path's
	// load/admission-time index (questions never pay the build cost).
	idx *Index
}

// NewExplainer builds an explainer over the relation and mined patterns.
// The options supply defaults for every question; ExplainOpts' per-call
// options override fields that are set.
func NewExplainer(r engine.Relation, patterns []*pattern.Mined, opt Options) *Explainer {
	return &Explainer{
		r:        r,
		patterns: patterns,
		opt:      opt.withDefaults(),
		cache:    newGroupCache(),
		idx:      NewIndex(patterns),
	}
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
func (e *Explainer) ExplainOpts(q UserQuestion, opt Options) ([]Explanation, *Stats, error) {
	merged := e.merged(opt)
	idx := e.idx
	if merged.LinearScan {
		idx = nil
	}
	g, rel, stats, err := prepareIndexed(q, e.r, e.patterns, merged, idx, e.cache.lookup(e.r))
	if err != nil {
		return nil, nil, err
	}
	expls, err := g.run(rel, stats)
	if err != nil {
		return nil, nil, err
	}
	return expls, stats, nil
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

// CachedGroupings reports how many distinct aggregate results are held.
func (e *Explainer) CachedGroupings() int {
	return e.cache.len()
}

// SetPatterns swaps the pattern set the explainer answers from — the
// maintenance path after an append updates patterns without discarding
// the group-by cache (entries invalidate themselves lazily, per
// grouping, via the table epoch). The caller must exclude concurrent
// Explain calls while swapping, as the server's append path does.
func (e *Explainer) SetPatterns(patterns []*pattern.Mined) {
	e.patterns = patterns
	e.idx = NewIndex(patterns)
}

// IndexStats reports the shape of the explainer's relevance index.
func (e *Explainer) IndexStats() IndexStats {
	return e.idx.Stats()
}
