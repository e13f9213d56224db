package explain

import (
	"context"
	"math"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"cape/internal/pattern"
)

// workItem is one (relevant pattern, refinement) pair of the generation
// search space.
type workItem struct {
	re  relevantEntry
	ref *pattern.Mined
}

// explSink receives candidate explanations; topK is the sequential
// implementation, sharedTopK the concurrent one.
type explSink interface {
	offer(Explanation)
}

// sharedTopK guards a topK for concurrent offers and republishes the
// current k-th best score through an atomic, so workers read the pruning
// bound of Section 3.5 without taking the heap lock. The published score
// only ever increases, so a stale read under-prunes — it can never drop
// an explanation that belongs in the final top-k. Combined with the
// deterministic tie-breaks in topK, this makes the parallel result
// identical to the sequential one.
type sharedTopK struct {
	mu   sync.Mutex
	tk   *topK
	full atomic.Bool
	kth  atomic.Uint64 // math.Float64bits of the current k-th best score
}

func newSharedTopK(k int) *sharedTopK {
	return &sharedTopK{tk: newTopK(k)}
}

// offer drops a candidate strictly below the published k-th score without
// taking the lock — the published score trails the true one, so that
// candidate would be dropped under the lock too — and otherwise hands it
// to the guarded topK.
func (s *sharedTopK) offer(e Explanation) {
	if min, full := s.minScore(); full && e.Score < min {
		return
	}
	s.mu.Lock()
	s.tk.offer(e)
	if min, full := s.tk.minScore(); full {
		s.kth.Store(math.Float64bits(min))
		s.full.Store(true)
	}
	s.mu.Unlock()
}

// minScore returns the last published k-th best score. It may lag the
// true value, which is safe: pruning against a lower bound is
// conservative.
func (s *sharedTopK) minScore() (float64, bool) {
	if !s.full.Load() {
		return 0, false
	}
	return math.Float64frombits(s.kth.Load()), true
}

// runParallel fans the work items across `workers` goroutines. Items are
// claimed through an atomic cursor in the same ascending-NORM order the
// sequential loop visits, so the shared bound tightens early and pruning
// stays effective under concurrency. Per-worker Stats are summed at the
// end; PrunedRefinements — and Candidates, since a pruned pair skips its
// candidate scan — may vary run-to-run with scheduling (a worker may
// enumerate a pair a faster schedule would have pruned) without
// affecting the returned explanations. Scheduling is the only source of
// that variance: every pair that does get enumerated counts each row of
// its grouped result as one candidate (see enumerate), whatever the
// relation's storage.
func (g *generator) runParallel(items []workItem, stats *Stats, workers int) ([]Explanation, error) {
	shared := newSharedTopK(g.opt.K)
	var next atomic.Int64
	var failed atomic.Bool
	workerStats := make([]Stats, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	labels := pprof.Labels("cape_pool", "explain:refinements")
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pprof.Do(context.Background(), labels, func(context.Context) {
				st := &workerStats[w]
				for {
					i := int(next.Add(1)) - 1
					if i >= len(items) || failed.Load() {
						return
					}
					it := items[i]
					if min, full := shared.minScore(); full && g.scoreBound(it.re, it.ref) < min {
						st.PrunedRefinements++
						continue
					}
					if err := g.enumerate(it.re, it.ref, shared, st); err != nil {
						errs[w] = err
						failed.Store(true)
						return
					}
				}
			})
		}(w)
	}
	wg.Wait()
	for w := range workerStats {
		stats.Candidates += workerStats[w].Candidates
		stats.PrunedRefinements += workerStats[w].PrunedRefinements
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return shared.tk.sorted(), nil
}
