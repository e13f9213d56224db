package engine

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker pool shared by every layer of one mining or
// explanation run: miners fan attribute sets across it, and Cube, which
// a run hands the same pool, fans its masks across it, so composing the
// two levels never oversubscribes the configured width. No relation
// holds a pool: a run passes its own to whatever fans out. A group-by
// itself runs one sequential scan (groupParts) at every width. The zero
// of *Pool (nil) runs everything inline.
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
