package explain

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"cape/internal/distance"
	"cape/internal/pattern"
	"cape/internal/value"
)

// Explanation is Definition 7's triple (P, P', t') augmented with the
// quantities that produced its score.
type Explanation struct {
	// Relevant is the pattern P relevant for the question.
	Relevant pattern.Pattern
	// Refined is the refinement P' whose local model the counterbalance
	// deviates from.
	Refined pattern.Pattern
	// Attrs names the counterbalance tuple's attributes (F' then V,
	// canonical order); Tuple holds the corresponding values.
	Attrs []string
	Tuple value.Tuple
	// AggValue is t'[agg(A)]; Predicted is g_{P',t'[F']}(t'[V]).
	AggValue  value.V
	Predicted float64
	// Deviation is AggValue − Predicted (Definition 8).
	Deviation float64
	// Distance is d(t[G], t'[F' ∪ V]) under the configured metric.
	Distance float64
	// Norm is the normalization factor NORM of Definition 10.
	Norm float64
	// Score is Definition 10's deviation/distance score; higher is a
	// better explanation.
	Score float64
}

// DistTuple renders the counterbalance tuple for the distance metric.
func (e Explanation) DistTuple() distance.Tuple {
	out := make(distance.Tuple, len(e.Attrs))
	for i, a := range e.Attrs {
		out[a] = e.Tuple[i]
	}
	return out
}

// key identifies the (P', t') combination for deduplication: when several
// relevant patterns refine to the same P' and tuple, only the
// highest-scoring explanation is kept (per Section 3.3).
func (e Explanation) key() string {
	return e.Refined.Key() + "\x1e" + e.Tuple.Key()
}

// String renders "(AX, ICDE, 2007, 6) score=13.78 via [author]: ...".
func (e Explanation) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, a := range e.Attrs {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s=%s", a, e.Tuple[i])
	}
	fmt.Fprintf(&sb, ", %s=%s) score=%.2f [dev=%+.2f pred=%.2f] via %s refined to %s",
		e.Refined.Agg, e.AggValue, e.Score, e.Deviation, e.Predicted, e.Relevant, e.Refined)
	return sb.String()
}

// held is an explanation the top-k keeps, with its key built once.
type held struct {
	Explanation
	key string
}

// better imposes a total order on explanations — higher score first, ties
// broken by key — so the kept top-k set is unique and the top-k list is
// always a prefix of any larger-k list.
func better(a, b held) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.key < b.key
}

// explHeap is a min-heap under the `better` order holding the best k
// explanations seen so far (the heap root is the current k-th best).
type explHeap []held

func (h explHeap) Len() int            { return len(h) }
func (h explHeap) Less(i, j int) bool  { return better(h[j], h[i]) }
func (h explHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *explHeap) Push(x interface{}) { *h = append(*h, x.(held)) }
func (h *explHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// topK maintains the best k explanations, at most one per (P', t') key.
type topK struct {
	k    int
	heap explHeap
}

func newTopK(k int) *topK {
	return &topK{k: k}
}

// minScore is the current k-th best score, or -inf semantics (ok=false)
// when fewer than k explanations are held.
func (t *topK) minScore() (float64, bool) {
	if len(t.heap) < t.k {
		return 0, false
	}
	return t.heap[0].Score, true
}

// offer inserts an explanation, handling dedup and eviction.
//
// A candidate strictly below the k-th score of a full heap is dropped
// before its key is built: the k-th score only rises, so it could never
// be kept. Deduplication only looks at the ≤ k held entries: once a
// key's entry is evicted, the k-th entry is better than it, so the same
// key at the same or a lower score can never re-enter; at a higher score
// it is a fresh candidate like any other.
func (t *topK) offer(e Explanation) {
	if len(t.heap) == t.k && e.Score < t.heap[0].Score {
		return
	}
	c := held{Explanation: e, key: e.key()}
	for i := range t.heap {
		h := &t.heap[i]
		if h.key != c.key {
			continue
		}
		// The same (P', t') again. Different relevant patterns can
		// produce it at the same score: tie-break on the relevant
		// pattern's key, so the kept entry does not depend on arrival
		// order — parallel runs must reproduce the sequential result
		// byte for byte.
		if c.Score > h.Score || (c.Score == h.Score && c.Relevant.Key() < h.Relevant.Key()) {
			*h = c
			heap.Fix(&t.heap, i)
		}
		return
	}
	if len(t.heap) < t.k {
		heap.Push(&t.heap, c)
		return
	}
	if better(c, t.heap[0]) {
		t.heap[0] = c
		heap.Fix(&t.heap, 0)
	}
}

// sorted returns the held explanations best first under the total order
// (descending score, ties broken by key).
func (t *topK) sorted() []Explanation {
	hs := append(explHeap(nil), t.heap...)
	sort.Slice(hs, func(i, j int) bool { return better(hs[i], hs[j]) })
	out := make([]Explanation, len(hs))
	for i := range hs {
		out[i] = hs[i].Explanation
	}
	return out
}

// sharedTopK guards a topK for concurrent offers and republishes the
// current k-th best score through an atomic, so workers read the pruning
// bound of Section 3.5 without taking the heap lock. The published score
// only ever increases, so a stale read under-prunes — it can never drop
// an explanation that belongs in the final top-k. Combined with the
// deterministic tie-breaks in topK, this makes the parallel result
// identical to the sequential one; with one worker the published score
// is always the current one.
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

// sorted returns the held explanations best first. Call it only after
// every offer has returned.
func (s *sharedTopK) sorted() []Explanation {
	return s.tk.sorted()
}
