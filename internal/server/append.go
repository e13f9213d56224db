package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"cape/internal/engine"
	"cape/internal/explain"
	"cape/internal/mining"
	"cape/internal/pattern"
	"cape/internal/store"
	"cape/internal/value"
)

// Live maintenance: POST /v1/append applies a batch of rows to a loaded
// table and folds them into every pattern set mined over it, so the
// offline phase keeps up with arriving data instead of going silently
// stale. GET /v1 reports the freshness of every set against its table's
// current epoch/row count. See DESIGN.md §11.

// AddPatternSetEntry registers a pattern set loaded from a stamped store
// file (the capeserver -patterns-dir startup path) and returns its
// assigned ID plus a human-readable staleness warning — empty when the
// store's stamp matches the loaded table (or when the store predates
// stamping, where divergence is undetectable).
func (s *Server) AddPatternSetEntry(entry *pattern.StoreEntry) (id, warning string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	ps := &patternSet{
		ID:    "ps-" + strconv.Itoa(s.nextID),
		Table: entry.Table,
		stamp: entry.Stamp,
		spec:  entry.Spec,
	}
	ps.serve(entry.Patterns)
	s.patterns[ps.ID] = ps

	tab, ok := s.tables[entry.Table]
	if !ok {
		return ps.ID, fmt.Sprintf("pattern store for table %q: table is not loaded; staleness unknown", entry.Table)
	}
	// Two distinct stale shapes (classifyStamp): a stamp strictly behind
	// the table is maintainable — catch-up heals it — while a stamp
	// ahead of the table on either axis means the mined history is not a
	// prefix of this table and only a re-mine reconciles them.
	c := classifyStamp(entry.Stamp, tab.NumRows(), tab.Epoch())
	warning = staleWarning(entry.Table, c, entry.Stamp, tab.NumRows(), tab.Epoch(), entry.Spec != nil)
	return ps.ID, warning
}

// PatternSetEntry returns a pattern set as a store entry — its table,
// served patterns, stamp and mining spec — the inverse of
// AddPatternSetEntry, for callers that persist a set to a pattern store.
func (s *Server) PatternSetEntry(id string) (*pattern.StoreEntry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ps, ok := s.patterns[id]
	if !ok {
		return nil, false
	}
	return &pattern.StoreEntry{Table: ps.Table, Patterns: ps.patterns, Stamp: ps.stamp, Spec: ps.spec}, true
}

// AppendRequest is the body of POST /v1/append. Each row is a JSON array
// with one element per table column; elements are raw scalars (string,
// number, null) or the kind-tagged object form the engine marshals.
type AppendRequest struct {
	Table string              `json:"table"`
	Rows  [][]json.RawMessage `json:"rows"`
}

// appendSetStatus reports what an append did to one pattern set.
type appendSetStatus struct {
	ID string `json:"id"`
	// Status is "maintained" (the set now reflects the table including
	// the appended rows) or "stale" (the set could not be maintained;
	// Reason says why).
	Status   string `json:"status"`
	Patterns int    `json:"patterns"`
	Reason   string `json:"reason,omitempty"`
	// CandStats carries the refreshed raw candidate evidence for sets
	// mined withStats, so a shard coordinator can recompute global
	// admission after routing an append batch.
	CandStats []mining.CandStat `json:"candStats,omitempty"`
}

// handleAppend applies a batch of rows and catches up every pattern set
// mined over the table. ServeHTTP already holds the appendMu write lock,
// so no explanation or mine is in flight: tables and explainer
// pattern sets mutate in place safely, and the lazily epoch-checked
// group-by caches invalidate only the groupings a later request actually
// revisits.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	var req AppendRequest
	if !readJSON(w, r, &req) {
		return
	}
	tab, ok := s.table(req.Table)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown table %q", req.Table)
		return
	}
	rows := make([]value.Tuple, len(req.Rows))
	for i, raw := range req.Rows {
		t, err := value.ParseJSONTuple(raw)
		if err != nil {
			httpError(w, http.StatusBadRequest, "row %d: %v", i, err)
			return
		}
		rows[i] = t
	}
	// Validation happens before anything is written, so a bad row leaves
	// the table, its WAL and its indexes untouched.
	// Store-backed tables route through the WAL: the batch is framed and
	// fsynced per the store's policy before this handler replies, so an
	// acknowledged append survives a crash. In-memory tables append
	// directly, as before.
	var walSeq uint64
	if st, ok := s.storeFor(req.Table); ok {
		seq, err := st.Append(rows)
		switch {
		case err == nil:
			walSeq = seq
		case errors.Is(err, store.ErrInvalidBatch):
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		default:
			// Durability is unknown (failed fsync / torn append): the
			// store has write-disabled itself; nothing was acknowledged.
			httpError(w, http.StatusServiceUnavailable, "durable append failed: %v", err)
			return
		}
	} else if err := tab.AppendRows(rows); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	var sets []*patternSet
	for _, ps := range s.patterns {
		if ps.Table == req.Table {
			sets = append(sets, ps)
		}
	}
	sort.Slice(sets, func(i, j int) bool { return sets[i].ID < sets[j].ID })

	statuses := make([]appendSetStatus, 0, len(sets))
	for _, ps := range sets {
		statuses = append(statuses, s.maintainSet(ps, tab))
	}
	s.mu.Unlock()

	resp := map[string]interface{}{
		"table":       req.Table,
		"appended":    len(rows),
		"rows":        tab.NumRows(),
		"epoch":       tab.Epoch(),
		"patternSets": statuses,
	}
	if walSeq != 0 {
		resp["walSeq"] = walSeq
		resp["durable"] = true
	}
	writeJSON(w, http.StatusOK, resp)
}

// maintainSet folds the table's current rows into one pattern set and
// serves the maintained patterns. A set restored from a store (or whose
// table was replaced) builds its Maintainer here instead. A shard set
// keeps serving only the keys its coordinator admitted; the coordinator
// re-admits from the refreshed CandStats before any explanation can
// observe the new rows (its write lock spans append + admit). Caller
// holds s.mu and the appendMu write lock.
func (s *Server) maintainSet(ps *patternSet, tab *engine.Table) appendSetStatus {
	st := appendSetStatus{ID: ps.ID, Status: "stale", Patterns: ps.Count}
	if ps.spec == nil {
		st.Reason = "no mining spec recorded (legacy store); re-mine to refresh"
		return st
	}
	var err error
	if ps.maintainer == nil || ps.maintainer.Table() != tab {
		var opt mining.Options
		if opt, err = mining.OptionsFromSpec(ps.spec); err == nil {
			opt.Parallelism = ps.Options.Parallelism
			err = ps.build(tab, opt)
		}
	} else if err = ps.maintainer.CatchUp(); err == nil {
		ps.refresh(tab)
	}
	if err != nil {
		st.Reason = err.Error()
		return st
	}
	st.Status = "maintained"
	st.Patterns = ps.Count
	if ps.Options.WithStats {
		st.CandStats = ps.maintainer.CandStats()
	}
	return st
}

// handleStatus reports every loaded table and pattern set with live
// freshness: a set is stale when its recorded stamp no longer matches
// its table's epoch/row count (or the table is gone); sets from
// un-stamped legacy stores report stamped=false, staleness unknown.
func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	type tableStatus struct {
		Name  string `json:"name"`
		Rows  int    `json:"rows"`
		Epoch uint64 `json:"epoch"`
		// Durable is true for store-backed tables; WriteDisabled reports
		// a poisoned store (a write-path fault disabled further appends).
		Durable       bool   `json:"durable,omitempty"`
		WriteDisabled bool   `json:"writeDisabled,omitempty"`
		WriteError    string `json:"writeError,omitempty"`
	}
	type setStatus struct {
		ID           string `json:"id"`
		Table        string `json:"table"`
		Patterns     int    `json:"patterns"`
		Stamped      bool   `json:"stamped"`
		Maintainable bool   `json:"maintainable"`
		Stale        bool   `json:"stale"`
		// Freshness distinguishes the two stale shapes: "behind" (the
		// stamp is a prefix of the table's history; maintenance heals
		// it) vs "diverged" (the stamp is ahead of the table; only a
		// re-mine reconciles). "fresh" and "unknown" otherwise.
		Freshness string `json:"freshness"`
		Reason    string `json:"reason,omitempty"`
		// Version counts served-pattern swaps (maintenance, admission);
		// with the table epoch it keys the answer cache, so operators
		// can correlate hit-rate drops with invalidation events.
		Version uint64 `json:"version"`
		// Cache reports this set's answer-cache counters; absent until
		// the first explanation touches the set (lazy creation) or when
		// caching is disabled.
		Cache *answerCacheStats `json:"answerCache,omitempty"`
		// Index reports the relevance-index shape backing this set's
		// warm explainer; absent until the explainer is built.
		Index *explain.IndexStats `json:"index,omitempty"`
		// CachedGroupings counts the groupings that explainer retains
		// itself: its question groupings, plus the pattern groupings it
		// computed while the set had no Maintainer over its table.
		CachedGroupings int `json:"cachedGroupings,omitempty"`
	}
	s.mu.RLock()
	tables := make([]tableStatus, 0, len(s.tables))
	for name, t := range s.tables {
		ts := tableStatus{Name: name, Rows: t.NumRows(), Epoch: t.Epoch()}
		if st, ok := s.stores[name]; ok {
			ts.Durable = true
			if err := st.Err(); err != nil {
				ts.WriteDisabled = true
				ts.WriteError = err.Error()
			}
		}
		tables = append(tables, ts)
	}
	sets := make([]setStatus, 0, len(s.patterns))
	for _, ps := range s.patterns {
		st := setStatus{
			ID: ps.ID, Table: ps.Table, Patterns: ps.Count,
			Stamped: ps.stamp != nil, Maintainable: ps.spec != nil,
			Version: ps.version,
		}
		if ps.anscache != nil {
			cs := ps.anscache.stats()
			st.Cache = &cs
		}
		if ps.ex != nil {
			is := ps.ex.IndexStats()
			st.Index = &is
			st.CachedGroupings = ps.ex.CachedGroupings()
		}
		tab, ok := s.tables[ps.Table]
		if !ok {
			st.Stale = true
			st.Freshness = "unknown"
			st.Reason = fmt.Sprintf("table %q is not loaded", ps.Table)
			sets = append(sets, st)
			continue
		}
		c := classifyStamp(ps.stamp, tab.NumRows(), tab.Epoch())
		st.Freshness = c.String()
		switch c {
		case stampBehind:
			st.Stale = true
			st.Reason = fmt.Sprintf("set reflects rows=%d epoch=%d, table has rows=%d epoch=%d; maintainable by POST /v1/append",
				ps.stamp.Rows, ps.stamp.Epoch, tab.NumRows(), tab.Epoch())
		case stampDiverged:
			st.Stale = true
			st.Reason = fmt.Sprintf("set reflects rows=%d epoch=%d but table has rows=%d epoch=%d: epoch mismatch, must re-mine",
				ps.stamp.Rows, ps.stamp.Epoch, tab.NumRows(), tab.Epoch())
		}
		sets = append(sets, st)
	}
	s.mu.RUnlock()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	sort.Slice(sets, func(i, j int) bool { return sets[i].ID < sets[j].ID })
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"tables":      tables,
		"patternSets": sets,
	})
}
