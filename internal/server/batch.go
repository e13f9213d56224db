package server

import (
	"net/http"

	"cape/internal/explain"
)

// maxBatchQuestions caps one batch request. The limit guards the
// per-item slices the handler allocates before any real work happens;
// legitimate explanation sweeps are orders of magnitude smaller.
const maxBatchQuestions = 1024

// ExplainBatchRequest is the body of POST /v1/explain/batch: one
// pattern set, shared scoring options, and many questions. The batch
// shares the pattern set's warm group-by cache and the relevant-pattern
// scan across its questions, so N questions cost far less than N
// /v1/explain calls.
type ExplainBatchRequest struct {
	// Patterns names a pattern set from /v1/mine.
	Patterns string `json:"patterns"`
	// Questions are the batch items; answers align positionally.
	Questions []QuestionSpec `json:"questions"`
	// K, Parallelism, Numeric and Weights apply to every question.
	K           int                `json:"k,omitempty"`
	Parallelism int                `json:"parallelism,omitempty"`
	Numeric     map[string]float64 `json:"numeric,omitempty"`
	Weights     map[string]float64 `json:"weights,omitempty"`
}

// batchItemDTO is the per-question result of a batch call. Status is an
// HTTP-style code for this item alone: 200 with explanations, or 400
// with an error message — one bad question never fails the batch.
type batchItemDTO struct {
	Index        int              `json:"index"`
	Status       int              `json:"status"`
	Question     string           `json:"question,omitempty"`
	Explanations []explanationDTO `json:"explanations,omitempty"`
	Stats        *explain.Stats   `json:"stats,omitempty"`
	Error        string           `json:"error,omitempty"`
}

// reindexed copies a batch item with a different position. Cached items
// are stored at index 0 (the index is request-local, everything else is
// question-local); hits copy the value back out with the caller's
// index. The Explanations slice and Stats pointer are shared — both are
// immutable once rendered.
func reindexed(it batchItemDTO, index int) batchItemDTO {
	it.Index = index
	return it
}

func (s *Server) handleExplainBatch(w http.ResponseWriter, r *http.Request) {
	var req ExplainBatchRequest
	if !readJSON(w, r, &req) {
		return
	}
	if len(req.Questions) == 0 {
		httpError(w, http.StatusBadRequest, "batch needs at least one question")
		return
	}
	if len(req.Questions) > maxBatchQuestions {
		httpError(w, http.StatusBadRequest, "batch of %d questions exceeds the limit of %d", len(req.Questions), maxBatchQuestions)
		return
	}
	if !explainLimits(w, req.K, &req.Parallelism) {
		return
	}
	ps, tab, gen, ok := s.setState(w, req.Patterns)
	if !ok {
		return
	}
	metric, err := buildMetric(req.Numeric, req.Weights)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Resolve every spec to a question; specs that fail validation get
	// their 400 item now and are excluded from the engine batch, so the
	// engine only sees questions the table can actually answer. Items
	// with a cached answer skip the engine batch the same way — the
	// cached value is the fully rendered item, reindexed per request.
	cache := s.answerCacheFor(ps)
	epoch := tab.Epoch()
	items := make([]batchItemDTO, len(req.Questions))
	keys := make([]string, len(req.Questions))
	ex := s.explainerFor(ps, tab)
	var qs []explain.UserQuestion
	var qIdx []int // qs[j] answers items[qIdx[j]]
	for i, spec := range req.Questions {
		items[i].Index = i
		if cache != nil {
			keys[i] = ansKey('b', ps.version, gen, epoch, spec, req.K, req.Parallelism, req.Numeric, req.Weights)
			if _, v, ok := cache.lookup(keys[i]); ok {
				it := v.(batchItemDTO)
				it.Index = i
				items[i] = it
				continue
			}
		}
		q, err := spec.question(ex)
		if err != nil {
			items[i].Status = http.StatusBadRequest
			items[i].Error = err.Error()
			if cache != nil {
				cache.insert(keys[i], items[i].Status, reindexed(items[i], 0))
			}
			continue
		}
		items[i].Question = q.String()
		qs = append(qs, q)
		qIdx = append(qIdx, i)
	}

	opt := explain.Options{K: req.K, Metric: metric, Parallelism: req.Parallelism}
	for j, it := range ex.ExplainBatchOpts(qs, opt) {
		i := qIdx[j]
		if it.Err != nil {
			items[i].Status = http.StatusBadRequest
			items[i].Error = it.Err.Error()
		} else {
			items[i].Status = http.StatusOK
			items[i].Stats = it.Stats
			items[i].Explanations = make([]explanationDTO, 0, len(it.Explanations))
			for _, e := range it.Explanations {
				items[i].Explanations = append(items[i].Explanations, newExplanationDTO(e, qs[j]))
			}
		}
		if cache != nil {
			cache.insert(keys[i], items[i].Status, reindexed(items[i], 0))
		}
	}

	okCount := 0
	for _, it := range items {
		if it.Status == http.StatusOK {
			okCount++
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"items":  items,
		"ok":     okCount,
		"failed": len(items) - okCount,
	})
}
