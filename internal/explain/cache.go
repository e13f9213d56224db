package explain

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"cape/internal/engine"
	"cape/internal/pattern"
	"cape/internal/value"
)

// groupKey canonically identifies the aggregate query γ_{F'∪V, agg}(R)
// a refined pattern enumerates over.
func groupKey(p pattern.Pattern) string {
	return groupingKey(p.GroupAttrs(), p.Agg)
}

// groupingKey identifies γ_{cols, agg}(R): a question grouping and a
// pattern grouping with the same column order share one key.
func groupingKey(cols []string, agg engine.AggSpec) string {
	return strings.Join(cols, "\x1f") + "\x1e" + agg.String()
}

// questionGroupings is how many groupings the cache keeps for questions
// alone: γ_{G, agg}(R) for a (G, agg) that no pattern of the set
// enumerates. Clients choose G and agg, so without a bound these would
// stay resident for ever. Sixteen holds the handful of shapes an
// interactive session or a serving workload asks about, while capping
// what questions can pin at sixteen groupings of at most |R| groups
// each. Pattern groupings are never evicted.
const questionGroupings = 16

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
// Question groupings no pattern enumerates are bounded; see
// questionGroupings. When a source is set, pattern lookups ask it first
// and the cache answers only what it declines.
type groupCache struct {
	shards [cacheShards]cacheShard

	// source, when non-nil, supplies pattern groupings; see
	// Explainer.SetGroupingSource.
	source GroupingSource

	// onCompute, when non-nil, is invoked once per actual computation —
	// a build or a catch-up, not per lookup — before it runs: a test hook
	// for the computed-exactly-once guarantee.
	onCompute func(key string)

	// mu guards patternKeys and recent; it is taken before a shard's.
	mu sync.Mutex
	// patternKeys are the groupings the pattern set enumerates.
	patternKeys map[string]bool
	// recent holds every other cached grouping, least recently asked
	// first; trim keeps at most questionGroupings of them.
	recent []string
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
	grp   *retained // nil when the computation failed
}

// retained is one key's grouping state, handed from entry to entry as
// the epoch advances. mu serializes its catch-ups with the key probes
// of find, which may come from readers of an older entry; epoch is the
// table epoch of the last successful computation.
type retained struct {
	mu    sync.Mutex
	g     *engine.RetainedGroupBy
	epoch uint64
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

// get returns the entry of γ_{groupCols, agg}(r), cached under key, at
// r's current epoch, its computation done. The first request builds the
// grouping; a request at a newer epoch catches the previous entry's
// grouping up to r. Concurrent callers of the same key block until that
// single computation finishes and share its result. A failed
// computation is not cached: in-flight waiters observe the error, later
// callers rebuild. Readers that raced onto an entry before the epoch
// advanced still get its table, which is correct for the data they were
// reading. (The server excludes appends from in-flight reads, so mixed
// epochs never overlap there.)
func (c *groupCache) get(r engine.MutableRelation, key string, groupCols []string, agg engine.AggSpec) (*cacheEntry, error) {
	epoch := r.Epoch()
	sh := c.shardFor(key)
	sh.mu.Lock()
	prev := sh.entries[key]
	if prev != nil && prev.epoch == epoch {
		sh.mu.Unlock()
		<-prev.ready
		return prev, prev.err
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
		e.grp.mu.Lock()
		if e.err = e.grp.g.CatchUp(r); e.err == nil {
			e.tab, e.grp.epoch = e.grp.g.Table(), epoch
		}
		e.grp.mu.Unlock()
	} else {
		var g *engine.RetainedGroupBy
		if g, e.err = r.GroupByAccums(groupCols, []engine.AggSpec{agg}); e.err == nil {
			e.tab, e.grp = g.Table(), &retained{g: g, epoch: epoch}
		}
	}
	if e.err != nil {
		e.grp = nil
		sh.mu.Lock()
		if sh.entries[key] == e {
			delete(sh.entries, key)
		}
		sh.mu.Unlock()
	}
	close(e.ready)
	return e, e.err
}

// find returns the aggregate of the group of e's table whose key matches
// values, one per grouping column, as SelectEq matches (Int and Float by
// numeric value, −0 = +0, NaN = NaN); ok is false when no group does.
// It probes the grouping's canonical-key lookup. Only when that cannot
// answer for e's table — the arity is wrong, which SelectEq reports, or
// a later epoch has already moved the grouping past it — does it scan
// the table with SelectEq.
func (e *cacheEntry) find(cols []string, values value.Tuple) (agg value.V, ok bool, err error) {
	if len(values) == len(cols) {
		e.grp.mu.Lock()
		current := e.grp.epoch == e.epoch
		var gi int
		if current {
			gi, ok = e.grp.g.Find(values)
		}
		e.grp.mu.Unlock()
		if current {
			// A group past the table's rows was folded by a catch-up that
			// failed and published nothing.
			if !ok || gi >= e.tab.NumRows() {
				return value.V{}, false, nil
			}
			return e.tab.Col(len(cols)).Value(gi), true, nil
		}
	}
	sel, err := e.tab.SelectEq(cols, values)
	if err != nil || sel.NumRows() == 0 {
		return value.V{}, false, err
	}
	return sel.Col(len(cols)).Value(0), true, nil
}

// lookup returns the generator's grouping resolver over r: the table of
// γ_{F∪V, agg}(r), the grouping pattern p enumerates, from the source
// when it has one, else from this cache, computed at most once per
// (grouping, epoch). Safe for concurrent calls.
func (c *groupCache) lookup(r engine.Relation) func(pattern.Pattern) (*engine.Table, error) {
	return func(p pattern.Pattern) (*engine.Table, error) {
		cols := p.GroupAttrs()
		if c.source != nil {
			if t, ok := c.source.Grouping(cols, p.Agg); ok {
				return t, nil
			}
		}
		mr, ok := r.(engine.MutableRelation)
		if !ok {
			return nil, errNotRetained(r)
		}
		e, err := c.get(mr, groupingKey(cols, p.Agg), cols, p.Agg)
		if err != nil {
			return nil, err
		}
		return e.tab, nil
	}
}

// errNotRetained is the error of a grouping read over a relation that
// cannot fold appended rows.
func errNotRetained(r engine.Relation) error {
	return fmt.Errorf("explain: relation %T keeps no retained groupings; use a Table or SegTable", r)
}

// question returns the entry of γ_{groupCols, agg}(r) for a user
// question: get, then the grouping counts as the most recently asked one
// unless a pattern enumerates it.
func (c *groupCache) question(r engine.MutableRelation, groupCols []string, agg engine.AggSpec) (*cacheEntry, error) {
	key := groupingKey(groupCols, agg)
	e, err := c.get(r, key, groupCols, agg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.patternKeys[key] {
		if i := slices.Index(c.recent, key); i >= 0 {
			c.recent = slices.Delete(c.recent, i, i+1)
		}
		c.recent = append(c.recent, key)
		c.trim()
	}
	return e, nil
}

// setPatterns makes the groupings of patterns the ones never evicted.
// Cached groupings the previous set enumerated and this one does not
// become question groupings, older than any question's, and the bound
// applies to them too.
func (c *groupCache) setPatterns(patterns []*pattern.Mined) {
	keys := make(map[string]bool, len(patterns))
	for _, m := range patterns {
		keys[groupKey(m.Pattern)] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var recent []string
	for key := range c.patternKeys {
		if !keys[key] && c.holds(key) {
			recent = append(recent, key)
		}
	}
	slices.Sort(recent)
	for _, key := range c.recent {
		if !keys[key] {
			recent = append(recent, key)
		}
	}
	c.patternKeys, c.recent = keys, recent
	c.trim()
}

// trim drops the least recently asked question groupings past the
// bound. A reader already holding a dropped grouping's table keeps it.
// Caller holds c.mu.
func (c *groupCache) trim() {
	for len(c.recent) > questionGroupings {
		key := c.recent[0]
		c.recent = slices.Delete(c.recent, 0, 1)
		sh := c.shardFor(key)
		sh.mu.Lock()
		delete(sh.entries, key)
		sh.mu.Unlock()
	}
}

// holds reports whether key is cached (or in flight).
func (c *groupCache) holds(key string) bool {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.entries[key] != nil
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
