package engine

import (
	"context"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker pool shared by every layer of one mining or
// explanation run: miners fan attribute sets across it, and the engine
// fans a cube's masks (cubeOver) and a SegTable's parts (SelectEq)
// across the same pool, so composing the two levels never
// oversubscribes the configured width. A group-by itself runs one
// sequential scan (groupParts) at every width. The zero of *Pool (nil)
// runs everything inline.
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

// poolSlot holds the pool a relation's kernels fan across. Runs over
// one relation may overlap — a server mines several sets of one table
// at once — so each run's attachment lasts until its own detach, and
// the kernels use the latest pool still attached: a run that ends never
// takes the pool from under one still running. Results are
// byte-identical at any pool width, so which attached pool the kernels
// use changes only their speed.
type poolSlot struct {
	mu       sync.Mutex
	attached []*Pool // in attach order
	cur      atomic.Pointer[Pool]
}

// attach holds p until detach is called; detach is idempotent.
func (s *poolSlot) attach(p *Pool) (detach func()) {
	s.mu.Lock()
	s.attached = append(s.attached, p)
	s.cur.Store(p)
	s.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			i := slices.Index(s.attached, p)
			s.attached = slices.Delete(s.attached, i, i+1)
			var latest *Pool
			if n := len(s.attached); n > 0 {
				latest = s.attached[n-1]
			}
			s.cur.Store(latest)
		})
	}
}

// load returns the pool the kernels fan across, nil for none. Queries
// running on pool workers read it without taking the lock.
func (s *poolSlot) load() *Pool { return s.cur.Load() }

// pooledRelation lets generic operators (cubeOver) discover the pool a
// relation carries without widening the Relation interface.
type pooledRelation interface{ queryPool() *Pool }
