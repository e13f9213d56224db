package engine

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// Morsel-driven execution: the parts kernels split their input parts
// into independent row ranges ("morsels" — each sealed segment or dense
// slab, large ones further split, on RLE-run boundaries of the leading
// key column where it has them), scan each morsel into a private
// partial state on a worker of a shared bounded pool, and fold the
// partials back in fixed part order. The fold-order discipline
// keeps the output byte-identical to the sequential kernel at any
// worker count:
//
//   - Group ids: morsels are folded in global row order and each
//     morsel's local groups are visited in local first-appearance
//     order, so global ids are assigned exactly in global
//     first-appearance order — identical to one sequential scan.
//     Cross-morsel identity goes through the same canonical AppendKey
//     bytes the sequential kernel hashes.
//   - Aggregates: only exactly-mergeable states are ever merged —
//     integer count/sum adds are associative, and the Min/Max merge
//     re-applies the strict-Compare first-encountered-wins rule, which
//     picks the same winner as the sequential fold (ties keep the
//     earlier morsel's value, i.e. the earlier row's). Aggregates whose
//     result depends on float summation order (Avg, and Sum over a
//     column with float values) or on NaN tie-breaking (Min/Max over a
//     column with NaN) make the whole query fall back to the sequential
//     kernel — see morselMergeable.

// Pool is a bounded worker pool shared by every layer of one mining or
// explanation run: miners fan attribute sets across it and the engine's
// morsel kernels fan row ranges across the same pool, so composing the
// two levels never oversubscribes the configured width. The zero of
// *Pool (nil) runs everything inline.
//
// ForEach uses caller-runs semantics: the calling goroutine always
// participates, and up to workers−1 extra goroutines join only while
// pool tokens are free. A nested ForEach from inside a worker therefore
// never blocks waiting for capacity — it simply runs inline when the
// pool is saturated — so the composition is deadlock-free by
// construction.
type Pool struct {
	workers int
	sem     chan struct{} // one token per extra goroutine beyond the caller
}

// NewPool creates a pool of the given width; widths below 2 yield a
// pool that runs everything inline on the caller.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers, sem: make(chan struct{}, workers-1)}
}

// Workers reports the configured width (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// ForEach runs fn(i) for i in [0, n), fanning across the pool, and
// returns the first error. It fails fast: after an error no new item is
// claimed. Worker goroutines run under a pprof label ("cape_pool" →
// label) so profiles attribute time to the stage that spawned them.
func (p *Pool) ForEach(label string, n int, fn func(i int) error) error {
	if p == nil || p.workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	var failed atomic.Bool
	var mu sync.Mutex
	var firstErr error
	run := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(i); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				failed.Store(true)
				return
			}
		}
	}
	var wg sync.WaitGroup
	extra := p.workers - 1
	if extra > n-1 {
		extra = n - 1
	}
	labels := pprof.Labels("cape_pool", label)
acquire:
	for j := 0; j < extra; j++ {
		select {
		case p.sem <- struct{}{}:
		default:
			break acquire // saturated: caller + existing workers cover the queue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-p.sem }()
			pprof.Do(context.Background(), labels, func(context.Context) { run() })
		}()
	}
	run()
	wg.Wait()
	return firstErr
}

// PoolSettable is implemented by relations whose query kernels can fan
// work across a shared pool (Table, SegTable). Miners attach their
// run's pool so per-attribute-set and per-morsel parallelism draw from
// one budget.
type PoolSettable interface {
	SetPool(*Pool)
}

// pooledRelation lets generic operators (cubeOver) discover the pool a
// relation carries without widening the Relation interface.
type pooledRelation interface{ queryPool() *Pool }

// morsel is one independently scannable row range of one part.
type morsel struct {
	part   int32
	lo, hi int32
}

// morselTargetRows is the row count one morsel aims for. A variable so
// the property tests can shrink it and force many morsels over small
// inputs.
var morselTargetRows = int32(64 * 1024)

// splitMorsels cuts parts into morsels of roughly target rows each, in
// global row order. Split points snap to the end of the enclosing run
// of the leading key column when it is RLE-encoded, so huge runs are
// never cut (a cut would be harmless for the fold but would make the
// morsel boundaries encoding-dependent for no gain); parts smaller than
// two targets stay whole.
func splitMorsels(parts []*compPart, target int32) []morsel {
	var out []morsel
	for pi, p := range parts {
		n := int32(p.n)
		if n == 0 {
			continue
		}
		if n < 2*target || len(p.keys) == 0 {
			out = append(out, morsel{part: int32(pi), lo: 0, hi: n})
			continue
		}
		key0 := p.keys[0]
		lo := int32(0)
		for lo < n {
			hi := lo + target
			if hi >= n || n-hi < target/2 {
				hi = n
			} else if ends := key0.runEnds; ends != nil {
				a, b := 0, len(ends)
				for a < b {
					mid := (a + b) / 2
					if ends[mid] <= hi {
						a = mid + 1
					} else {
						b = mid
					}
				}
				hi = ends[a]
				if hi >= n {
					hi = n
				}
			}
			out = append(out, morsel{part: int32(pi), lo: lo, hi: hi})
			lo = hi
		}
	}
	return out
}

// morselMergeable reports whether every aggregate's per-morsel partial
// states merge bit-exactly: Count always (associative integer adds);
// Min/Max unless a part's argument holds NaN (the strict-Compare
// first-wins merge reproduces the sequential winner only under a total
// preorder, which NaN — Compare-equal to every numeric — breaks); Sum
// only when no part's argument holds a float — the result is then the
// associative integer sumI, and the order-sensitive float mirror sum is
// never read. Avg, and Sum with float contributions, depend on float
// summation order. Queries with any declining aggregate stay on the
// sequential kernel.
func morselMergeable(parts []*compPart, aCols []aggCol) bool {
	for ai, ac := range aCols {
		f := ac.spec.Func
		if f == Avg {
			return false
		}
		for _, p := range parts {
			hasFloat, hasNaN := p.argFlags(ai)
			if f == Sum && hasFloat || (f == Min || f == Max) && hasNaN {
				return false
			}
		}
	}
	return true
}

// mergeAggState folds a later morsel's partial state for one group into
// an earlier morsel's (or the global) state. Only called for aggregates
// morselMergeable admits; sumF/anyFloat are never populated there.
func mergeAggState(dst, src *aggState, f AggFunc) {
	switch f {
	case Count:
		dst.count += src.count
	case Sum:
		dst.count += src.count
		dst.sumI += src.sumI
	case Min, Max:
		if src.seen {
			dst.extend(src.ext, f)
		}
	}
}

// morselGroupBound is an upper bound on the number of distinct groups:
// per part, the key columns' dictionary cross product, capped at the
// part's rows.
func morselGroupBound(parts []*compPart) int64 {
	var bound int64
	for _, p := range parts {
		prod := int64(1)
		for _, kc := range p.keys {
			d := int64(len(kc.dict))
			if d == 0 {
				d = 1
			}
			prod *= d
			if prod >= int64(p.n) {
				prod = int64(p.n)
				break
			}
		}
		bound += prod
	}
	return bound
}

// groupByPartsPool evaluates GroupBy over parts, fanning
// morsels across the pool when the query's aggregates merge exactly
// and the grouping is low-cardinality; otherwise (or for small inputs
// and width-1 pools) it runs the sequential kernel. Output is
// byte-identical either way.
//
// The cardinality gate matters as much as the mergeability one: when
// groups ≈ rows, each morsel's private group table approaches the
// global one and the serial canonical-key merge costs more than the
// parallel scans save — group-bys like that run *slower* morselized at
// every worker count, so they stay sequential.
func groupByPartsPool(pool *Pool, parts []*compPart, nK int, aCols []aggCol, sch Schema) *Table {
	if pool.Workers() > 1 && nK > 0 && morselMergeable(parts, aCols) {
		var rows int64
		for _, p := range parts {
			rows += int64(p.n)
		}
		if morselGroupBound(parts)*8 <= rows {
			morsels := splitMorsels(parts, morselTargetRows)
			if len(morsels) > 1 {
				return groupByMorsels(pool, morsels, parts, nK, aCols, sch)
			}
		}
	}
	return groupByParts(parts, nK, aCols, sch)
}

// groupByMorsels scans every morsel into a private partial group table
// on the pool, then folds the partials in morsel (= global row) order.
func groupByMorsels(pool *Pool, morsels []morsel, parts []*compPart,
	nK int, aCols []aggCol, sch Schema) *Table {

	sumNeedsF := sumNeedsFFor(parts, aCols)
	dims := globalKeyDims(parts, nK)
	partials := make([]*gbScan, len(morsels))
	// fn never fails; the error return exists for ForEach's signature.
	_ = pool.ForEach("engine:groupby", len(morsels), func(i int) error {
		sc := newGbScan(nK, aCols, true)
		m := morsels[i]
		sc.ga.setFlat(dims, int(m.hi-m.lo))
		sc.scanRange(parts[m.part], m.part, m.lo, m.hi, aCols, sumNeedsF)
		partials[i] = sc
		return nil
	})

	global := make(map[string]int32)
	var firsts []partRef
	gs := newGroupStates(aCols)
	for _, sc := range partials {
		for li, key := range sc.ga.keys {
			g, ok := global[string(key)]
			if !ok {
				g = int32(len(firsts))
				global[string(key)] = g
				firsts = append(firsts, sc.ga.firsts[li])
				gs.grow(len(firsts))
			}
			if gs.countOnly {
				gs.counts[g] += sc.gs.counts[li]
				continue
			}
			for ai := range aCols {
				mergeAggState(&gs.aggs[ai][g], &sc.gs.aggs[ai][li], aCols[ai].spec.Func)
			}
		}
	}
	return materializeGroups(parts, firsts, gs, nK, aCols, sch)
}
