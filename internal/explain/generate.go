package explain

import (
	"fmt"
	"math"
	"sort"

	"cape/internal/distance"
	"cape/internal/engine"
	"cape/internal/pattern"
	"cape/internal/value"
)

// Options configures explanation generation.
type Options struct {
	// K is the number of explanations to return (default 10).
	K int
	// Metric supplies attribute distances and weights; nil uses
	// categorical distance with equal weights.
	Metric *distance.Metric
	// Epsilon guards denominators against zero (default 1e-9, the
	// paper's footnote 2).
	Epsilon float64
	// DescendingNorm makes GenOpt visit relevant patterns in descending
	// NORM order — the order the paper's prose literally states. The
	// default ascending order visits small-NORM (large-possible-score)
	// patterns first, which fills the top-k with strong candidates early
	// and lets the upper bound prune more; this flag exists for the
	// ablation benchmark.
	DescendingNorm bool
	// LinearScan disables the structural relevance index: relevant
	// patterns are found by the original linear scan over the whole
	// pattern set and refinement lists by per-pattern rescans. Output is
	// byte-identical either way; the flag exists for the ablation
	// benchmark and the differential suite that pins that equivalence.
	LinearScan bool
	// Parallelism is the width of the per-call worker pool an Explainer
	// (and so GenOpt) runs the (relevant pattern, refinement) pairs on;
	// a batch fans its questions over the same pool, each question's
	// pairs nested in it. 0 or 1 runs sequentially. Parallel runs
	// return exactly the sequential explanation list — same scores,
	// tuples, and order — because the top-k order is total and the
	// shared score bound only ever under-prunes. Stats.PrunedRefinements
	// — and with it Candidates, since a skipped pair also skips its
	// candidate scan — may vary between runs (a stale bound lets a
	// worker enumerate a pair a tighter schedule would have pruned); the
	// explanations, RelevantPatterns, and RefinementPairs do not. At
	// Parallelism 1 every counter is exactly reproducible: enumerate
	// counts every row of a pair's grouped result as a candidate, as
	// Algorithm 1 does (a dictionary miss still counts the full grouped
	// result).
	Parallelism int
}

// workers clamps Parallelism to a usable worker count.
func (o Options) workers() int {
	if o.Parallelism < 1 {
		return 1
	}
	return o.Parallelism
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 10
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 1e-9
	}
	return o
}

// Stats reports the work a generation run performed, for the Figure-6
// experiments.
type Stats struct {
	// RelevantPatterns is the number of mined patterns relevant to the
	// question (Definition 5).
	RelevantPatterns int
	// RefinementPairs is the number of (P, P') pairs considered.
	RefinementPairs int
	// Candidates is the number of result tuples t' tested.
	Candidates int
	// PrunedRefinements counts (P, P') pairs skipped by the upper score
	// bound (GenOpt only).
	PrunedRefinements int
}

// relevantEntry pairs a relevant pattern with the question-fragment data
// the scoring needs.
type relevantEntry struct {
	mined *pattern.Mined
	frag  value.Tuple // t[F]
	norm  float64     // NORM of Definition 10
}

// generator carries the shared state of one generation run. After
// Explainer.prepare returns, every field is read-only and the hooks are
// safe for concurrent calls — a generator may be driven by many workers.
type generator struct {
	q   UserQuestion
	r   engine.Relation
	opt Options
	// lookup resolves γ_{F∪V, agg}(R) for a pattern — the grouping a
	// drill-down enumerates and NORM reads — through the Explainer's
	// shared group-by cache.
	lookup func(pattern.Pattern) (*engine.Table, error)
	// refine lists the mined patterns refining a relevant pattern: the
	// relevance index's precomputed lists, or a linear scan of the
	// pattern set under LinearScan.
	refine func(*pattern.Mined) []*pattern.Mined
}

// GenNaive is Algorithm 1: test every candidate tuple of every refinement
// of every relevant pattern, maintaining a top-k heap.
func GenNaive(q UserQuestion, r engine.Relation, patterns []*pattern.Mined, opt Options) ([]Explanation, *Stats, error) {
	g, rel, stats, err := NewExplainer(r, patterns, opt).prepare(q, Options{})
	if err != nil {
		return nil, nil, err
	}
	tk := newSharedTopK(g.opt.K)
	for _, re := range rel {
		for _, ref := range g.refine(re.mined) {
			stats.RefinementPairs++
			if err := g.enumerate(re, ref, tk, stats); err != nil {
				return nil, nil, err
			}
		}
	}
	return tk.sorted(), stats, nil
}

// GenOpt is the Section-3.5 generator: relevant patterns are visited in
// ascending NORM order (largest possible scores first) and a refinement
// P' is skipped whenever its upper score bound
//
//	score↑(φ, P, P') = dev↑(P') / (d↓(φ, P') · NORM + ε)
//
// cannot beat the current k-th best score. It is one Explain call on a
// fresh Explainer: with opt.Parallelism > 1 the (P, P') pairs fan across
// a worker pool, and the result is identical to the sequential run.
func GenOpt(q UserQuestion, r engine.Relation, patterns []*pattern.Mined, opt Options) ([]Explanation, *Stats, error) {
	return NewExplainer(r, patterns, opt).Explain(q)
}

// sortRelevant orders relevant patterns by NORM. Ascending is the
// default: score ∝ 1/NORM, so small NORM first finds high-score
// explanations early and makes the bound bite sooner. The sort is stable
// so ties keep the (deterministic) mined-pattern order.
func sortRelevant(rel []relevantEntry, descending bool) {
	if descending {
		sort.SliceStable(rel, func(i, j int) bool { return rel[i].norm > rel[j].norm })
	} else {
		sort.SliceStable(rel, func(i, j int) bool { return rel[i].norm < rel[j].norm })
	}
}

// workItem is one (relevant pattern, refinement) pair of the search
// space, with the work its visit did.
type workItem struct {
	re    relevantEntry
	ref   *pattern.Mined
	stats Stats
}

// run executes the bound-pruned search over the relevant patterns on
// pool. The (P, P') pairs are flattened in visit order and claimed in
// that order, so the shared bound tightens as early as in a sequential
// loop; at width 1 the pool runs them inline in order, and every
// counter is exactly the sequential loop's. Wider, PrunedRefinements —
// and Candidates, since a pruned pair skips its candidate scan — vary
// with scheduling (a stale bound lets a worker enumerate a pair a
// faster schedule would have pruned); the explanations do not.
func (g *generator) run(rel []relevantEntry, stats *Stats, pool *engine.Pool) ([]Explanation, error) {
	sortRelevant(rel, g.opt.DescendingNorm)
	var items []workItem
	for _, re := range rel {
		for _, ref := range g.refine(re.mined) {
			items = append(items, workItem{re: re, ref: ref})
		}
	}
	stats.RefinementPairs = len(items)
	tk := newSharedTopK(g.opt.K)
	err := pool.ForEach("explain:refinements", len(items), func(i int) error {
		it := &items[i]
		// Strict comparison: a refinement whose bound ties the current
		// k-th score could still win the key tiebreak.
		if min, full := tk.minScore(); full && g.scoreBound(it.re, it.ref) < min {
			it.stats.PrunedRefinements++
			return nil
		}
		return g.enumerate(it.re, it.ref, tk, &it.stats)
	})
	if err != nil {
		return nil, err
	}
	for i := range items {
		stats.Candidates += items[i].stats.Candidates
		stats.PrunedRefinements += items[i].stats.PrunedRefinements
	}
	return tk.sorted(), nil
}

// relevant implements Definition 5 plus the NORM computation: the pattern
// must share the question's aggregate, use only question attributes, and
// hold locally on the question's fragment.
func (g *generator) relevant(m *pattern.Mined) (relevantEntry, bool, error) {
	if m.Pattern.Agg != g.q.Agg {
		return relevantEntry{}, false, nil
	}
	frag, ok := g.q.Project(m.Pattern.F)
	if !ok {
		return relevantEntry{}, false, nil // F ⊄ G
	}
	if _, ok := g.q.Project(m.Pattern.V); !ok {
		return relevantEntry{}, false, nil // V ⊄ G
	}
	if !m.HoldsLocally(frag) {
		return relevantEntry{}, false, nil
	}
	norm, err := g.norm(m.Pattern)
	if err != nil {
		return relevantEntry{}, false, err
	}
	return relevantEntry{mined: m, frag: frag, norm: norm}, true, nil
}

// norm computes Definition 10's normalization factor: the aggregate value
// of the question's own group under the relevant pattern's (coarser)
// grouping, i.e. π_{agg}(σ_{F∪V = t[F∪V]}(R)) aggregated. That value is
// the t[F∪V] row of γ_{F∪V, agg}(R) — the grouping the drill-down for
// the pair (P, P) enumerates — so it is read from there through the same
// lookup, matching dictionary codes as enumerate does; a value absent
// from a column's dictionary means an empty selection and NORM 0.
// Dictionary codes are value.Equal classes, so the selection is exactly
// one group.
func (g *generator) norm(p pattern.Pattern) (float64, error) {
	attrs := p.GroupAttrs()
	vals, ok := g.q.Project(attrs)
	if !ok {
		return 0, fmt.Errorf("explain: pattern attributes %v outside question group-by", attrs)
	}
	grouped, err := g.lookup(p)
	if err != nil {
		return 0, err
	}
	sch := grouped.Schema()
	keyIdx, err := sch.Indices(attrs)
	if err != nil {
		return 0, err
	}
	aggIdx := sch.Index(p.Agg.String())
	if aggIdx < 0 {
		return 0, fmt.Errorf("explain: grouped result missing aggregate column %q", p.Agg)
	}
	probe, miss := newCodeProbe(grouped, keyIdx, vals)
	if miss {
		return 0, nil
	}
	agg := grouped.Col(aggIdx)
	for r, n := 0, grouped.NumRows(); r < n; r++ {
		if probe.match(r) {
			return math.Abs(agg.F64[r]), nil
		}
	}
	return 0, nil
}

// codeProbe is an equality test t'[cols] = vals over the rows of a
// grouped table, resolved to dictionary codes.
type codeProbe struct {
	codes [][]int32
	want  []int32
}

// newCodeProbe resolves vals against the columns idx of a table. miss
// reports that some value occurs in no row, so no row matches.
func newCodeProbe(t *engine.Table, idx []int, vals value.Tuple) (p codeProbe, miss bool) {
	for i, ci := range idx {
		col := t.Col(ci)
		code, ok := col.CodeOf(vals[i])
		if !ok {
			return codeProbe{}, true
		}
		p.want = append(p.want, code)
		p.codes = append(p.codes, col.Codes)
	}
	return p, false
}

// match reports whether row r carries every probed code.
func (p *codeProbe) match(r int) bool {
	for j, codes := range p.codes {
		if codes[r] != p.want[j] {
			return false
		}
	}
	return true
}

// refinementsOf lists the mined patterns refining P w.r.t. the question
// (Definition 6) — including P itself, since F' ⊇ F is non-strict.
func refinementsOf(p *pattern.Mined, patterns []*pattern.Mined) []*pattern.Mined {
	var out []*pattern.Mined
	for _, c := range patterns {
		if c.Pattern.Refines(p.Pattern) {
			out = append(out, c)
		}
	}
	return out
}

// scoreBound is score↑(φ, P, P') from Section 3.5, using the refined
// pattern's per-fragment deviation extremes: only fragments agreeing with
// the question on P's partition attributes can produce candidates, so the
// bound takes the maximum counterbalancing deviation over exactly those
// local models (the paper's "more accurate bound using the information
// stored with the local versions of a pattern").
func (g *generator) scoreBound(re relevantEntry, ref *pattern.Mined) float64 {
	devUp := g.devBound(re, ref)
	if devUp <= 0 {
		return 0 // no counterbalancing deviation exists in reachable fragments
	}
	dLow := g.opt.Metric.LowerBound(g.q.GroupBy, ref.Pattern.GroupAttrs())
	return devUp / (dLow*re.norm + g.opt.Epsilon)
}

// devBound computes dev↑(φ, P') restricted to fragments matching the
// question's partition values, falling back to the pattern-global extreme
// when the attribute mapping fails.
func (g *generator) devBound(re relevantEntry, ref *pattern.Mined) float64 {
	global := ref.MaxPosDev
	if g.q.Dir == High {
		global = -ref.MaxNegDev
	}
	// Map P.F positions into P'.F (both canonical order).
	p, pRef := re.mined.Pattern, ref.Pattern
	idx := make([]int, len(p.F))
	for i, a := range p.F {
		idx[i] = -1
		for j, b := range pRef.F {
			if a == b {
				idx[i] = j
				break
			}
		}
		if idx[i] < 0 {
			return global // should not happen for a valid refinement
		}
	}
	best := 0.0
	for _, lm := range ref.Locals {
		match := true
		for i, j := range idx {
			if !value.Equal(lm.Frag[j], re.frag[i]) {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		dev := lm.MaxPosDev
		if g.q.Dir == High {
			dev = -lm.MaxNegDev
		}
		if dev > best {
			best = dev
		}
	}
	return best
}

// enumerate walks the aggregate result of the refined pattern's grouping
// and offers every valid counterbalance to the top-k collector
// (Definition 7 conditions 3–5). It only reads generator state and
// writes through the sink and stats it is handed, so concurrent calls
// with distinct stats are safe.
func (g *generator) enumerate(re relevantEntry, ref *pattern.Mined, sink *sharedTopK, stats *Stats) error {
	p, pRef := re.mined.Pattern, ref.Pattern
	attrs := pRef.GroupAttrs()
	grouped, err := g.lookup(pRef)
	if err != nil {
		return err
	}
	sch := grouped.Schema()
	fIdx, err := sch.Indices(p.F)
	if err != nil {
		return err
	}
	fRefIdx, err := sch.Indices(pRef.F)
	if err != nil {
		return err
	}
	vIdx, err := sch.Indices(pRef.V)
	if err != nil {
		return err
	}
	aggIdx := sch.Index(pRef.Agg.String())
	if aggIdx < 0 {
		return fmt.Errorf("explain: grouped result missing aggregate column %q", pRef.Agg)
	}
	attrIdx, err := sch.Indices(attrs)
	if err != nil {
		return err
	}

	// When the counterbalance schema equals the question's, exclude the
	// question tuple itself (Definition 7, condition 4).
	sameSchema := sameSet(attrs, g.q.GroupBy)
	var tOnAttrs value.Tuple
	if sameSchema {
		tOnAttrs, _ = g.q.Project(attrs)
	}

	sc := candScan{
		g: g, re: re, ref: ref, p: p, pRef: pRef, grouped: grouped,
		attrs: attrs, attrIdx: attrIdx, fRefIdx: fRefIdx, vIdx: vIdx,
		aggIdx: aggIdx, sameSchema: sameSchema, tOnAttrs: tOnAttrs,
		qDist:   g.q.DistTuple(),
		fragRef: make(value.Tuple, len(fRefIdx)),
		sink:    sink,
	}

	// The t'[F] = t[F] match compares dictionary codes, and the
	// aggregate and predictor values come from the columns' flat
	// buffers. Every row of the grouped result is one candidate, even
	// when a dictionary miss proves no row can match.
	n := grouped.NumRows()
	probe, miss := newCodeProbe(grouped, fIdx, re.frag)
	if miss {
		stats.Candidates += n
		return nil
	}
	agg := grouped.Col(sc.aggIdx)
	sc.vF64 = make([][]float64, len(sc.vIdx))
	sc.vNum = make([][]bool, len(sc.vIdx))
	for i, ci := range sc.vIdx {
		fc := grouped.Col(ci)
		sc.vF64[i], sc.vNum[i] = fc.F64, fc.Num
	}
	sc.vScratch = make([]float64, len(sc.vIdx))
	for r := 0; r < n; r++ {
		stats.Candidates++
		if !probe.match(r) {
			continue
		}
		sc.offer(r, agg.F64[r], agg.Num[r])
	}
	return nil
}

// candScan carries the per-enumerate state with which offer evaluates
// Definition 7 conditions 3–5 for each row that matches t'[F] = t[F].
type candScan struct {
	g          *generator
	re         relevantEntry
	ref        *pattern.Mined
	p, pRef    pattern.Pattern
	grouped    *engine.Table
	attrs      []string
	attrIdx    []int
	fRefIdx    []int
	vIdx       []int
	aggIdx     int
	sameSchema bool
	tOnAttrs   value.Tuple
	qDist      distance.Tuple
	fragRef    value.Tuple // scratch, refilled per row
	sink       *sharedTopK

	// Flat predictor buffers of the grouped table's V columns.
	vF64     [][]float64
	vNum     [][]bool
	vScratch []float64
}

// offer evaluates conditions 3–5 for one candidate row already matching
// t'[F] = t[F] and offers the resulting explanation to the sink. ri is
// the row's position in the grouped table; y/numeric is the row's
// aggregate value as AsFloat reports it.
func (sc *candScan) offer(ri int, y float64, numeric bool) {
	// Condition 3: P' holds locally on t'[F'].
	for i, ci := range sc.fRefIdx {
		sc.fragRef[i] = sc.grouped.Col(ci).Value(ri)
	}
	lm, ok := sc.ref.Local(sc.fragRef)
	if !ok {
		return
	}
	// Condition 5: deviation opposite to the question direction.
	if !numeric {
		return
	}
	allNum := true
	for i := range sc.vF64 {
		if !sc.vNum[i][ri] {
			allNum = false
			break
		}
		sc.vScratch[i] = sc.vF64[i][ri]
	}
	var pred float64
	if allNum {
		pred = lm.Model.Predict(sc.vScratch)
	} else {
		pred = lm.Model.Predict(nil)
	}
	dev := y - pred
	g := sc.g
	if (g.q.Dir == Low && dev <= 0) || (g.q.Dir == High && dev >= 0) {
		return
	}
	// Condition 4 second half: t' ≠ t for same-schema tuples.
	tup := make(value.Tuple, len(sc.attrs))
	for i, ci := range sc.attrIdx {
		tup[i] = sc.grouped.Col(ci).Value(ri)
	}
	if sc.sameSchema && tup.Equal(sc.tOnAttrs) {
		return
	}

	e := Explanation{
		Relevant:  sc.p,
		Refined:   sc.pRef,
		Attrs:     sc.attrs,
		Tuple:     tup,
		AggValue:  sc.grouped.Col(sc.aggIdx).Value(ri),
		Predicted: pred,
		Deviation: dev,
		Norm:      sc.re.norm,
	}
	e.Distance = g.opt.Metric.Distance(sc.qDist, e.DistTuple())
	isLow := 1.0
	if g.q.Dir == High {
		isLow = -1
	}
	e.Score = dev * isLow / (e.Distance*sc.re.norm + g.opt.Epsilon)
	sc.sink.offer(e)
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[string]bool, len(a))
	for _, x := range a {
		in[x] = true
	}
	for _, y := range b {
		if !in[y] {
			return false
		}
	}
	return true
}
