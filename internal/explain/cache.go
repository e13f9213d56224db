package explain

import (
	"fmt"
	"strings"
	"sync"

	"cape/internal/engine"
	"cape/internal/pattern"
)

// groupKey canonically identifies the aggregate query γ_{F'∪V, agg}(R)
// a refined pattern enumerates over.
func groupKey(p pattern.Pattern) string {
	return strings.Join(p.GroupAttrs(), "\x1f") + "\x1e" + p.Agg.String()
}

// cacheShards is the number of lock stripes in a groupCache. Sixteen
// keeps contention negligible at any worker count this package spawns
// while costing only sixteen small maps.
const cacheShards = 16

// groupCache maps group-by keys to aggregate results. It is sharded —
// concurrent lookups of different keys take different locks — and
// performs singleflight duplicate suppression: concurrent misses on the
// same key build or catch up its grouping once, with the late arrivals
// blocking on the first caller's result instead of repeating the work.
// (A single-mutex map would both serialize every lookup and let two
// concurrent misses each run the full aggregation.)
//
// Each key keeps one engine.RetainedGroupBy. The first lookup builds it
// with the group-by kernels; a lookup at a newer table epoch folds only
// the rows appended since into it and publishes the new table, so an
// append costs each grouping its next use O(appended rows + groups), not
// a regroup of the relation. Published tables are immutable snapshots:
// a reader still holding the table of an older epoch reads it unchanged
// while the grouping catches up. Every question enumerating the same
// grouping — in this run or, through the Explainer's shared cache, any
// later one — reads the same table.
type groupCache struct {
	shards [cacheShards]cacheShard

	// onCompute, when non-nil, is invoked once per actual computation —
	// a build or a catch-up, not per lookup — before it runs: a test hook
	// for the computed-exactly-once guarantee.
	onCompute func(key string)
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
}

// cacheEntry is one in-flight or completed publication of a grouping.
// ready is closed when tab/err are valid. epoch is the source-table
// epoch the table was (or is being) published at: a lookup at another
// epoch replaces the entry with one that takes over grp once this
// entry's computation is done, and catches it up. Groupings a question
// never revisits cost nothing after an append.
type cacheEntry struct {
	ready chan struct{}
	epoch uint64
	tab   *engine.Table
	err   error
	grp   *engine.RetainedGroupBy // nil when the computation failed
}

func newGroupCache() *groupCache {
	c := &groupCache{}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*cacheEntry)
	}
	return c
}

// shardFor hashes the key (FNV-1a) onto a lock stripe.
func (c *groupCache) shardFor(key string) *cacheShard {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return &c.shards[h%cacheShards]
}

// get returns γ_{groupCols, agg}(r), cached under key, at r's current
// epoch. The first request builds the grouping; a request at a newer
// epoch catches the previous entry's grouping up to r. Concurrent
// callers of the same key block until that single computation finishes
// and share its result. A failed computation is not cached: in-flight
// waiters observe the error, later callers rebuild. Readers that raced
// onto an entry before the epoch advanced still get its table, which is
// correct for the data they were reading. (The server excludes appends
// from in-flight reads, so mixed epochs never overlap there.)
func (c *groupCache) get(r engine.MutableRelation, key string, groupCols []string, agg engine.AggSpec) (*engine.Table, error) {
	epoch := r.Epoch()
	sh := c.shardFor(key)
	sh.mu.Lock()
	prev := sh.entries[key]
	if prev != nil && prev.epoch == epoch {
		sh.mu.Unlock()
		<-prev.ready
		return prev.tab, prev.err
	}
	e := &cacheEntry{ready: make(chan struct{}), epoch: epoch}
	sh.entries[key] = e
	sh.mu.Unlock()

	if c.onCompute != nil {
		c.onCompute(key)
	}
	if prev != nil {
		// The grouping is prev's until its computation is done.
		<-prev.ready
		e.grp = prev.grp
	}
	if e.grp != nil {
		e.err = e.grp.CatchUp(r)
	} else {
		e.grp, e.err = r.GroupByAccums(groupCols, []engine.AggSpec{agg})
	}
	if e.err == nil {
		e.tab = e.grp.Table()
	} else {
		e.grp = nil
		sh.mu.Lock()
		if sh.entries[key] == e {
			delete(sh.entries, key)
		}
		sh.mu.Unlock()
	}
	close(e.ready)
	return e.tab, e.err
}

// lookup returns the generator's grouping resolver over r backed by this
// cache: γ_{F∪V, agg}(r) for a pattern, computed at most once per
// (grouping, epoch). Safe for concurrent calls.
func (c *groupCache) lookup(r engine.Relation) func(pattern.Pattern) (*engine.Table, error) {
	mr, ok := r.(engine.MutableRelation)
	return func(p pattern.Pattern) (*engine.Table, error) {
		if !ok {
			return nil, fmt.Errorf("explain: relation %T keeps no retained groupings; use a Table or SegTable", r)
		}
		return c.get(mr, groupKey(p), p.GroupAttrs(), p.Agg)
	}
}

// len reports the number of cached (or in-flight) groupings.
func (c *groupCache) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}
