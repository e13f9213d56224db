package explain

import (
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

// groupCache maps group-by keys to materialized aggregate results. It is
// sharded — concurrent lookups of different keys take different locks —
// and performs singleflight duplicate suppression: concurrent misses on
// the same key run the GroupBy once, with the late arrivals blocking on
// the first caller's result instead of recomputing it. (A single-mutex
// map would both serialize every lookup and let two concurrent misses
// each run the full aggregation.)
//
// Cached tables are columnar carriers: the engine caches each table's
// dictionary-encoded columnar view on the table itself (built lazily,
// safe to build and read concurrently), so every question enumerating
// the same grouping — in this run or, through the Explainer's shared
// cache, any later one — reuses one set of code vectors and flat
// buffers instead of re-encoding.
type groupCache struct {
	shards [cacheShards]cacheShard

	// onCompute, when non-nil, is invoked once per actual computation
	// (not per lookup), before compute runs — a test hook for the
	// computed-exactly-once guarantee.
	onCompute func(key string)
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
}

// cacheEntry is one in-flight or completed computation. ready is closed
// when tab/err are valid. epoch is the source-table epoch the result was
// (or is being) computed at: a lookup at a newer epoch treats the entry
// as stale and recomputes, so appends invalidate cached groupings lazily
// and per grouping — untouched groupings keep their warm results until
// actually requested.
type cacheEntry struct {
	ready chan struct{}
	epoch uint64
	tab   *engine.Table
	err   error
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

// get returns the table cached under key at the given source epoch,
// running compute on the first request. Concurrent callers of the same
// key block until that single computation finishes and share its
// result. A failed computation is not cached: in-flight waiters observe
// the error, later callers retry. An entry computed at an older epoch
// is stale — the caller recomputes and replaces it; readers that raced
// onto the old entry before the epoch advanced still get the old
// result, which is correct for the data they were reading. (The server
// excludes appends from in-flight reads, so mixed epochs never overlap
// there.)
func (c *groupCache) get(key string, epoch uint64, compute func() (*engine.Table, error)) (*engine.Table, error) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok && e.epoch == epoch {
		sh.mu.Unlock()
		<-e.ready
		return e.tab, e.err
	}
	e := &cacheEntry{ready: make(chan struct{}), epoch: epoch}
	sh.entries[key] = e
	sh.mu.Unlock()

	if c.onCompute != nil {
		c.onCompute(key)
	}
	e.tab, e.err = compute()
	if e.err != nil {
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
	return func(p pattern.Pattern) (*engine.Table, error) {
		return c.get(groupKey(p), r.Epoch(), func() (*engine.Table, error) {
			return r.GroupBy(p.GroupAttrs(), []engine.AggSpec{p.Agg})
		})
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
