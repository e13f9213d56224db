package explain

import (
	"strings"

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
// set in a single pass: ExplainBatch on a fresh Explainer. Per-question
// output is identical to calling GenOpt on each question in isolation —
// same explanations, same order, same deterministic stats — but the
// batch amortizes the work the questions share:
//
//   - one relevance index serves every question: its structural
//     prefilter and precomputed refinement lists replace the full
//     pattern scans (opt.LinearScan selects the reference scans);
//   - the γ_{F'∪V, agg}(R) aggregate results that drill-downs scan and
//     NORM reads are held in one singleflight group-by cache shared by
//     every question, so each distinct grouping is computed at most
//     once per batch;
//   - the questions fan across one pool of opt.Parallelism workers, and
//     byte-identical duplicate questions are answered once and copied.
//
// Questions that fail validation (or error during generation) yield a
// per-item Err without affecting the other items.
func GenerateBatch(qs []UserQuestion, r engine.Relation, patterns []*pattern.Mined, opt Options) []BatchItem {
	return NewExplainer(r, patterns, opt).ExplainBatch(qs)
}

// ExplainBatch answers a batch of questions under the explainer's
// default options, sharing the explainer's warm group-by cache both
// across the batch and with every other Explain/ExplainBatch call.
func (e *Explainer) ExplainBatch(qs []UserQuestion) []BatchItem {
	return e.ExplainBatchOpts(qs, e.opt)
}

// ExplainBatchOpts is ExplainBatch with per-call options; zero-valued
// fields fall back to the explainer's defaults (the same overlay rule
// as ExplainOpts). The distinct questions fan across one pool of the
// merged Parallelism's width, and each question's (P, P') pairs nest in
// that same pool: the pool's caller-runs rule runs them inline while
// every worker is busy with a question and lets them fan out once
// workers free up, so there is no split of the budget between the two
// levels. Per-question explanations are the same at every width.
func (e *Explainer) ExplainBatchOpts(qs []UserQuestion, opt Options) []BatchItem {
	items := make([]BatchItem, len(qs))

	// Duplicate questions are answered once: canon[i] is the index of
	// the first occurrence of qs[i]'s key, and only those first
	// occurrences are answered.
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

	pool := engine.NewPool(e.merged(opt).workers())
	// Per-question failures are recorded in the item, so no error stops
	// the fan-out.
	_ = pool.ForEach("explain:batch", len(distinct), func(n int) error {
		i := distinct[n]
		items[i].Explanations, items[i].Stats, items[i].Err = e.answer(qs[i], opt, pool)
		return nil
	})

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
