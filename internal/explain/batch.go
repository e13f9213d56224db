package explain

import (
	"context"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"

	"cape/internal/engine"
	"cape/internal/pattern"
	"cape/internal/value"
)

// BatchItem is the outcome of one question in a batch: the question's
// ranked explanations with their generation stats, or the error that
// prevented them. Err is nil exactly when Explanations/Stats are valid.
type BatchItem struct {
	Explanations []Explanation
	Stats        *Stats
	Err          error
}

// GenerateBatch answers many questions over one relation and pattern
// set in a single pass. Per-question output is identical to calling
// Generate on each question in isolation — same explanations, same
// order, same deterministic stats — but the batch amortizes the work
// the questions share:
//
//   - one relevance index serves every question: its structural
//     prefilter and precomputed refinement lists replace the full
//     pattern scans (opt.LinearScan selects the reference scans);
//   - the γ_{F'∪V, agg}(R) aggregate results that drill-downs scan and
//     NORM reads are held in one singleflight group-by cache shared by
//     every question, so each distinct grouping is computed at most
//     once per batch;
//   - opt.Parallelism fans the questions across a worker pool, and
//     byte-identical duplicate questions are answered once and copied.
//
// Questions that fail validation (or error during generation) yield a
// per-item Err without affecting the other items.
func GenerateBatch(qs []UserQuestion, r engine.Relation, patterns []*pattern.Mined, opt Options) []BatchItem {
	opt = opt.withDefaults()
	var idx *Index
	if !opt.LinearScan {
		idx = NewIndex(patterns)
	}
	return runBatch(qs, r, patterns, opt, newGroupCache().lookup(r), idx)
}

// ExplainBatch answers a batch of questions under the explainer's
// default options, sharing the explainer's warm group-by cache both
// across the batch and with every other Explain/ExplainBatch call.
func (e *Explainer) ExplainBatch(qs []UserQuestion) []BatchItem {
	return e.ExplainBatchOpts(qs, e.opt)
}

// ExplainBatchOpts is ExplainBatch with per-call options; zero-valued
// fields fall back to the explainer's defaults (the same overlay rule
// as ExplainOpts).
func (e *Explainer) ExplainBatchOpts(qs []UserQuestion, opt Options) []BatchItem {
	merged := e.merged(opt)
	idx := e.idx
	if merged.LinearScan {
		idx = nil
	}
	return runBatch(qs, e.r, e.patterns, merged, e.cache.lookup(e.r), idx)
}

// questionKey identifies a question completely (attributes, aggregate,
// values, aggregate value, direction) for duplicate suppression. Tuple
// keys are type-tagged, so e.g. Int(1) and String("1") do not collide.
func questionKey(q UserQuestion) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(q.GroupBy, "\x1f"))
	sb.WriteByte('\x1e')
	sb.WriteString(q.Agg.String())
	sb.WriteByte('\x1e')
	sb.WriteString(q.Values.Key())
	sb.WriteByte('\x1e')
	sb.WriteString(value.Tuple{q.AggValue}.Key())
	sb.WriteByte('\x1e')
	sb.WriteByte('0' + byte(q.Dir))
	return sb.String()
}

// runBatch executes the worker pool over validated options.
// opt must already have defaults applied.
func runBatch(qs []UserQuestion, r engine.Relation, patterns []*pattern.Mined, opt Options,
	lookup func(pattern.Pattern) (*engine.Table, error), idx *Index) []BatchItem {

	items := make([]BatchItem, len(qs))
	if len(qs) == 0 {
		return items
	}

	// Duplicate questions are answered once: canon[i] is the index of
	// the first occurrence of qs[i]'s key, and only those first
	// occurrences enter the work queue.
	canon := make([]int, len(qs))
	firstOf := make(map[string]int, len(qs))
	distinct := make([]int, 0, len(qs))
	for i, q := range qs {
		k := questionKey(q)
		if j, seen := firstOf[k]; seen {
			canon[i] = j
			continue
		}
		firstOf[k] = i
		canon[i] = i
		distinct = append(distinct, i)
	}

	// Split the worker budget: up to opt.Parallelism questions in
	// flight, and whatever is left over fans each question's own
	// (pattern, refinement) pairs. Per-question output is deterministic
	// at every split, so the division is a pure scheduling choice.
	batchWorkers := opt.workers()
	if batchWorkers > len(distinct) {
		batchWorkers = len(distinct)
	}
	perQ := opt
	perQ.Parallelism = opt.workers() / batchWorkers
	if perQ.Parallelism < 1 {
		perQ.Parallelism = 1
	}

	answer := func(i int) {
		items[i].Explanations, items[i].Stats, items[i].Err = explainOne(qs[i], r, patterns, perQ, idx, lookup)
	}
	if batchWorkers <= 1 {
		for _, i := range distinct {
			answer(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		labels := pprof.Labels("cape_pool", "explain:batch")
		for w := 0; w < batchWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pprof.Do(context.Background(), labels, func(context.Context) {
					for {
						n := int(next.Add(1)) - 1
						if n >= len(distinct) {
							return
						}
						answer(distinct[n])
					}
				})
			}()
		}
		wg.Wait()
	}

	// Fill duplicates from their canonical answer. Explanations are
	// immutable once returned, so sharing the slice is safe; Stats gets
	// a private copy so callers may aggregate in place.
	for i, j := range canon {
		if i == j {
			continue
		}
		items[i] = BatchItem{Explanations: items[j].Explanations, Err: items[j].Err}
		if items[j].Stats != nil {
			st := *items[j].Stats
			items[i].Stats = &st
		}
	}
	return items
}

// explainOne runs the standard bound-pruned generation for one question
// of the batch over the batch's shared index and grouping lookup.
func explainOne(q UserQuestion, r engine.Relation, patterns []*pattern.Mined, opt Options, idx *Index,
	lookup func(pattern.Pattern) (*engine.Table, error)) ([]Explanation, *Stats, error) {

	g, rel, stats, err := prepareIndexed(q, r, patterns, opt, idx, lookup)
	if err != nil {
		return nil, nil, err
	}
	expls, err := g.run(rel, stats)
	if err != nil {
		return nil, nil, err
	}
	return expls, stats, nil
}
