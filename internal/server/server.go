// Package server exposes CAPE over HTTP: load CSV tables, mine pattern
// sets offline, and answer user questions online — the deployment shape
// the paper's architecture implies (mining is a batch job; explanation is
// an interactive endpoint). The API is JSON over REST:
//
//	GET  /healthz                    liveness probe
//	GET  /v1                         status: tables, pattern sets, staleness
//	GET  /v1/tables                  list loaded tables
//	POST /v1/tables?name=pub         load a CSV body as a table
//	POST /v1/append                  append rows to a table, maintain its pattern sets
//	POST /v1/mine                    mine a pattern set, returns its id
//	GET  /v1/patterns/{id}           inspect a mined pattern set
//	POST /v1/explain                 top-k counterbalances for a question
//	POST /v1/explain/batch           many questions in one pass, per-item status
//	POST /v1/patterns/{id}/admit     shard role: restrict a set to the coordinator's admitted patterns
//
// These are the paper's two stages and nothing else; the Coordinator
// serves the same routes, all but admission. The server holds everything
// in memory and is safe for concurrent use.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"

	"cape/internal/engine"
	"cape/internal/explain"
	"cape/internal/mining"
	"cape/internal/pattern"
	"cape/internal/store"
)

// Server is the HTTP handler. Create with New.
type Server struct {
	mux *http.ServeMux

	// appendMu serializes table mutation against every other request:
	// /v1/append takes the write side for its whole run (append rows,
	// catch maintainers up, swap pattern sets), all other requests take
	// the read side. This is what lets appends mutate tables and
	// explainer pattern sets in place — no explanation or mine is ever
	// in flight across an epoch change.
	appendMu sync.RWMutex

	mu       sync.RWMutex
	tables   map[string]*engine.Table
	patterns map[string]*patternSet
	// tableGen counts replacements of each table name (load, attach,
	// reload). Answer-cache keys include it alongside the table epoch:
	// epochs restart when a table is reloaded from scratch, so the epoch
	// alone cannot distinguish "same name, different history".
	tableGen map[string]uint64
	// stores maps table name → the WAL store backing it (AttachStore).
	// A store-backed table's appends are durable: /v1/append replies
	// only after the batch is framed into the WAL (fsynced per the
	// store's policy).
	stores map[string]*store.Store
	nextID int

	// MaxBodyBytes caps request bodies (default 64 MiB).
	MaxBodyBytes int64

	// ExplainParallelism is the default worker count for explanation
	// generation (runtime.NumCPU() from New); requests may override it
	// with their own "parallelism" field.
	ExplainParallelism int

	// AnswerCacheSize bounds each pattern set's answer cache (entries,
	// not bytes): rendered /v1/explain responses and per-item batch
	// answers keyed by canonical question bytes × pattern-set version ×
	// table generation/epoch, so appends and admission swaps invalidate
	// for free. 0 uses the default (4096); negative disables answer
	// caching entirely.
	AnswerCacheSize int

	// DataDir, when non-empty, makes POST /v1/tables bootstrap a
	// durable store under DataDir/<name> for every newly loaded table,
	// using StoreOptions. Recovery of existing stores at startup is the
	// operator's (capeserver's) job.
	DataDir string
	// StoreOptions configures stores bootstrapped via DataDir.
	StoreOptions store.Options
}

// patternSet is a mined pattern set. A set /v1/mine creates is its
// Maintainer from the start: the mine builds it, the set serves its
// Patterns, and every append folds rows into it. A set restored from a
// pattern store (AddPatternSetEntry) builds its Maintainer on its first
// append instead.
type patternSet struct {
	ID      string      `json:"id"`
	Table   string      `json:"table"`
	Count   int         `json:"patterns"`
	Locals  int         `json:"localModels"`
	Options MineRequest `json:"options"`
	// patterns is the served list; serve is the only place it changes.
	patterns []*pattern.Mined
	// stamp records the source table's epoch/rows when the set was mined
	// or last maintained; nil for legacy (unstamped) stores, where
	// staleness is undetectable.
	stamp *pattern.StoreStamp
	// spec records the mining parameters; a set with a spec is
	// append-maintainable. Legacy stores carry none.
	spec *pattern.StoreSpec
	// maintainer holds the retained mining state and folds appended rows
	// into it; nil for a restored set until its first append.
	maintainer *mining.Maintainer
	// ex answers the set's questions over exTab, keeping its question
	// groupings warm across requests and reading pattern groupings from
	// maintainer while it tracks exTab (explainerFor); built on first
	// use, again when the table was replaced, and after build. Guarded
	// by Server.mu.
	ex    *explain.Explainer
	exTab *engine.Table
	// admitted, when non-nil, restricts the served patterns to the keys
	// a coordinator admitted (POST /v1/patterns/{id}/admit); patterns
	// holds the filtered list, the maintainer retains the full state.
	admitted map[string]bool
	// version counts swaps of the served pattern list (mining,
	// maintenance and admission). Answer-cache keys include it, so any
	// swap — even one that does not move the table epoch — invalidates
	// cached answers. Written only under the appendMu write lock, or
	// before the set is registered; read under its read side, like the
	// patterns slice itself.
	version uint64
	// anscache is the set's answer cache, built lazily on first use
	// (nil until then, and permanently nil when caching is disabled).
	// Guarded by Server.mu.
	anscache *answerCache
}

// New returns a ready-to-serve Server.
func New() *Server {
	s := &Server{
		tables:             make(map[string]*engine.Table),
		patterns:           make(map[string]*patternSet),
		tableGen:           make(map[string]uint64),
		stores:             make(map[string]*store.Store),
		MaxBodyBytes:       64 << 20,
		ExplainParallelism: runtime.NumCPU(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1", s.handleStatus)
	mux.HandleFunc("GET /v1/{$}", s.handleStatus)
	mux.HandleFunc("GET /v1/tables", s.handleListTables)
	mux.HandleFunc("POST /v1/tables", s.handleLoadTable)
	mux.HandleFunc("POST /v1/append", s.handleAppend)
	mux.HandleFunc("POST /v1/mine", s.handleMine)
	mux.HandleFunc("GET /v1/patterns/{id}", s.handleGetPatterns)
	mux.HandleFunc("POST /v1/patterns/{id}/admit", s.handleAdmit)
	mux.HandleFunc("POST /v1/explain", s.handleExplain)
	mux.HandleFunc("POST /v1/explain/batch", s.handleExplainBatch)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler. Append and admit requests run
// exclusively; everything else shares the read side of appendMu (see
// the field doc). Admission swaps served pattern lists in place, so it
// needs the same exclusion from in-flight explains that appends get.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.MaxBodyBytes)
	path := strings.TrimSuffix(r.URL.Path, "/")
	writer := r.Method == http.MethodPost &&
		(path == "/v1/append" || (strings.HasPrefix(path, "/v1/patterns/") && strings.HasSuffix(path, "/admit")))
	if writer {
		s.appendMu.Lock()
		defer s.appendMu.Unlock()
	} else {
		s.appendMu.RLock()
		defer s.appendMu.RUnlock()
	}
	s.mux.ServeHTTP(w, r)
}

// AddTable registers a table programmatically (e.g. preloaded data).
func (s *Server) AddTable(name string, t *engine.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables[name] = t
	s.tableGen[name]++
}

// ---- handlers ----

func (s *Server) handleListTables(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	type info struct {
		Name    string   `json:"name"`
		Rows    int      `json:"rows"`
		Columns []string `json:"columns"`
	}
	out := make([]info, 0, len(s.tables))
	for name, t := range s.tables {
		out = append(out, info{Name: name, Rows: t.NumRows(), Columns: t.Schema().Names()})
	}
	// Deterministic order for clients and tests.
	slices.SortFunc(out, func(a, b info) int { return strings.Compare(a.Name, b.Name) })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleLoadTable(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		httpError(w, http.StatusBadRequest, "query parameter 'name' is required")
		return
	}
	// A durable table cannot be silently replaced by a CSV upload: its
	// store (WAL, segments, pattern stamps) describes the existing
	// history.
	if _, ok := s.storeFor(name); ok {
		httpError(w, http.StatusConflict, "table %q is store-backed; append to it or remove its data directory", name)
		return
	}
	tab, err := engine.ReadCSV(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "loading CSV: %v", err)
		return
	}
	resp := map[string]interface{}{
		"name": name, "rows": tab.NumRows(), "columns": tab.Schema().Names(),
	}
	if s.DataDir != "" {
		if err := s.BootstrapStore(name, tab); err != nil {
			if errors.Is(err, store.ErrStoreExists) {
				httpError(w, http.StatusConflict,
					"a data directory for table %q already exists; restart the server to recover it", name)
				return
			}
			httpError(w, http.StatusInternalServerError, "creating durable store: %v", err)
			return
		}
		resp["durable"] = true
	} else {
		s.mu.Lock()
		s.tables[name] = tab
		s.tableGen[name]++
		s.mu.Unlock()
	}
	writeJSON(w, http.StatusCreated, resp)
}

// MineRequest is the body of POST /v1/mine.
type MineRequest struct {
	Table          string   `json:"table"`
	Attributes     []string `json:"attributes,omitempty"`
	MaxPatternSize int      `json:"maxPatternSize,omitempty"`
	Theta          float64  `json:"theta,omitempty"`
	LocalSupport   int      `json:"localSupport,omitempty"`
	Lambda         float64  `json:"lambda,omitempty"`
	GlobalSupport  int      `json:"globalSupport,omitempty"`
	Aggregates     []string `json:"aggregates,omitempty"`
	// Parallelism is the width the set is mined and maintained at: 0 (or
	// omitted) is the server's GOMAXPROCS, 1 sequential. Wider requests
	// are clamped to GOMAXPROCS; a negative one is a 400.
	Parallelism int `json:"parallelism,omitempty"`
	// WithStats additionally returns the raw per-candidate evidence
	// counters (mining.CandStat) in the response, and in every later
	// append status. This is the shard role of a sharded deployment:
	// shards mine with loosened global thresholds, the coordinator sums
	// the counters and applies the real λ/Δ gates via
	// POST /v1/patterns/{id}/admit.
	WithStats bool `json:"withStats,omitempty"`
}

func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	var req MineRequest
	if !readJSON(w, r, &req) {
		return
	}
	tab, ok := s.table(req.Table)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown table %q", req.Table)
		return
	}
	opt, err := req.options()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ps := &patternSet{Table: req.Table, Options: req}
	if err := ps.build(tab, opt); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The spec lets a set restored from a pattern store build its
	// Maintainer again; SpecFor accepts every opt the build accepted.
	ps.spec, _ = mining.SpecFor(tab, opt)
	s.mu.Lock()
	s.nextID++
	ps.ID = "ps-" + strconv.Itoa(s.nextID)
	s.patterns[ps.ID] = ps
	s.mu.Unlock()
	if req.WithStats {
		writeJSON(w, http.StatusCreated, map[string]interface{}{
			"id": ps.ID, "table": ps.Table, "patterns": ps.Count,
			"localModels": ps.Locals, "options": req,
			"candStats": ps.maintainer.CandStats(),
		})
		return
	}
	writeJSON(w, http.StatusCreated, ps)
}

// build mines tab under opt into a new Maintainer and serves its
// patterns. It is the one place a set's Maintainer is built: by
// /v1/mine, and by the first append to a set restored from a store or
// whose table was replaced — which heals a store that was already stale,
// because the build reads the table as it stands now. It drops the
// set's Explainer, whose cache holds the pattern groupings it computed
// without a Maintainer; the next one reads them from this Maintainer.
func (ps *patternSet) build(tab *engine.Table, opt mining.Options) error {
	m, err := mining.NewMaintainer(tab, opt)
	if err != nil {
		return err
	}
	ps.maintainer, ps.ex = m, nil
	ps.refresh(tab)
	return nil
}

// refresh serves the Maintainer's patterns and stamps the set with the
// table shape they reflect.
func (ps *patternSet) refresh(tab *engine.Table) {
	ps.stamp = &pattern.StoreStamp{Epoch: tab.Epoch(), Rows: tab.NumRows()}
	ps.serve(ps.maintainer.Patterns())
}

// serve makes mined, less any pattern a coordinator did not admit, the
// set's served list. It is the only place that list changes: it sets
// the counts, bumps the version — which reopens the answer-cache
// keyspace even when the table epoch did not move — and swaps the list
// into the set's Explainer, which also rebuilds its relevance index, so
// questions never pay that build. mined is sorted by key (Patterns()
// output), and filtering keeps that order, which explain iterates in.
// Callers hold Server.mu and the appendMu write lock, or own the set
// before it is registered.
func (ps *patternSet) serve(mined []*pattern.Mined) {
	if ps.admitted != nil {
		kept := make([]*pattern.Mined, 0, len(mined))
		for _, m := range mined {
			if ps.admitted[m.Pattern.Key()] {
				kept = append(kept, m)
			}
		}
		mined = kept
	}
	ps.patterns, ps.Count, ps.Locals = mined, len(mined), 0
	for _, m := range mined {
		ps.Locals += len(m.Locals)
	}
	ps.version++
	if ps.ex != nil {
		ps.ex.SetPatterns(mined)
	}
}

// options applies the request limits of /v1/mine, which the server and
// the coordinator share as explainLimits is shared for explain, and
// converts the request to mining.Options. A negative parallelism is
// refused; one above GOMAXPROCS is clamped to it in r itself, so the
// options a set echoes carry the width it mines and maintains at. 0
// stays 0, the miner's default: the machine's width.
func (r *MineRequest) options() (mining.Options, error) {
	if r.Parallelism < 0 {
		return mining.Options{}, fmt.Errorf("parallelism %d is negative; omit it (or send 0) to mine at the server's width", r.Parallelism)
	}
	r.Parallelism = min(r.Parallelism, runtime.GOMAXPROCS(0))
	opt := mining.Options{
		MaxPatternSize: r.MaxPatternSize,
		Attributes:     r.Attributes,
		Parallelism:    r.Parallelism,
		Thresholds: pattern.Thresholds{
			Theta:         r.Theta,
			LocalSupport:  r.LocalSupport,
			Lambda:        r.Lambda,
			GlobalSupport: r.GlobalSupport,
		},
	}
	if opt.Thresholds == (pattern.Thresholds{}) {
		opt.Thresholds = pattern.DefaultThresholds()
	}
	for _, a := range r.Aggregates {
		f, err := engine.ParseAggFunc(a)
		if err != nil {
			return opt, err
		}
		opt.AggFuncs = append(opt.AggFuncs, f)
	}
	return opt, nil
}

func (s *Server) handleGetPatterns(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.RLock()
	ps, ok := s.patterns[id]
	var mined []*pattern.Mined
	if ok {
		mined = ps.patterns
	}
	s.mu.RUnlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown pattern set %q", id)
		return
	}
	out := make([]patternDTO, 0, len(mined))
	for _, m := range mined {
		out = append(out, newPatternDTO(m))
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"id": ps.ID, "table": ps.Table, "patterns": out,
	})
}

// maxExplainK caps a request's k. The generator's score bound prunes
// only once the top-k heap is full, so a k beyond the candidate count
// silently turns pruning off; a thousand explanations is already far
// more than anyone reads.
const maxExplainK = 1000

// explainLimits applies the request limits shared by the explain
// endpoints of the server and the coordinator: a k above maxExplainK is
// refused with a 400, and *parallelism is clamped to GOMAXPROCS — more
// workers than the machine runs at once only add scheduling. It runs
// before the answer-cache key is built, so widths past the clamp share
// one entry; Options.workers applies the lower clamp. It reports
// whether the request may go on.
func explainLimits(w http.ResponseWriter, k int, parallelism *int) bool {
	if k > maxExplainK {
		httpError(w, http.StatusBadRequest, "k %d exceeds the limit of %d", k, maxExplainK)
		return false
	}
	*parallelism = min(*parallelism, runtime.GOMAXPROCS(0))
	return true
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req ExplainRequest
	if !readJSON(w, r, &req) {
		return
	}
	if !explainLimits(w, req.K, &req.Parallelism) {
		return
	}
	ps, tab, gen, ok := s.setState(w, req.Patterns)
	if !ok {
		return
	}
	// Both outcomes below are deterministic functions of the request and
	// the (pattern set version, table generation/epoch) state in the
	// cache key: a question that fails validation keeps failing until
	// the data changes, so negative answers cache like positive ones.
	compute := func() (int, interface{}, bool) {
		ex := s.explainerFor(ps, tab)
		q, opt, err := req.build(ex)
		if err != nil {
			return http.StatusBadRequest, errorBody(err), true
		}
		expls, stats, err := ex.ExplainOpts(q, opt)
		if err != nil {
			return http.StatusBadRequest, errorBody(err), true
		}
		out := make([]explanationDTO, 0, len(expls))
		for _, e := range expls {
			out = append(out, newExplanationDTO(e, q))
		}
		return http.StatusOK, map[string]interface{}{
			"question":     q.String(),
			"explanations": out,
			"stats":        stats,
		}, true
	}
	cache := s.answerCacheFor(ps)
	if cache == nil {
		status, v, _ := compute()
		writeJSON(w, status, v)
		return
	}
	key := ansKey('e', ps.version, gen, tab.Epoch(), req.spec(),
		req.K, req.Parallelism, req.Numeric, req.Weights)
	status, v, _ := cache.do(key, compute)
	writeJSON(w, status, v)
}

// errorBody matches httpError's JSON payload for cached negative
// answers.
func errorBody(err error) map[string]string {
	return map[string]string{"error": err.Error()}
}

// answerCacheFor returns the set's answer cache, building it on first
// use; nil when the server has answer caching disabled.
func (s *Server) answerCacheFor(ps *patternSet) *answerCache {
	if s.AnswerCacheSize < 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ps.anscache == nil {
		ps.anscache = newAnswerCache(s.AnswerCacheSize)
	}
	return ps.anscache
}

// setState looks up a pattern set with its table and the table's
// replacement generation, read atomically so cache keys never pair a
// new table with an old generation. When either is missing it answers
// the 404 itself and reports false.
func (s *Server) setState(w http.ResponseWriter, id string) (*patternSet, *engine.Table, uint64, bool) {
	s.mu.RLock()
	ps, ok := s.patterns[id]
	var tab *engine.Table
	var gen uint64
	if ok {
		tab, gen = s.tables[ps.Table], s.tableGen[ps.Table]
	}
	s.mu.RUnlock()
	switch {
	case !ok:
		httpError(w, http.StatusNotFound, "unknown pattern set %q", id)
	case tab == nil:
		httpError(w, http.StatusNotFound, "table %q for pattern set is gone", ps.Table)
	}
	return ps, tab, gen, ok && tab != nil
}

// explainerFor returns the pattern set's Explainer over tab, building
// it on first use and again when tab replaced the table it was built
// over. Reusing one Explainer per pattern set is what keeps its
// retained groupings warm across requests: question resolution and
// generation read them, and N concurrent identical questions compute
// each distinct grouping once instead of N times.
// While the set's Maintainer tracks tab, the Explainer reads pattern
// groupings from it and keeps only question groupings; a Maintainer
// built later (ps.build) drops the Explainer, so the next one does too.
func (s *Server) explainerFor(ps *patternSet, tab *engine.Table) *explain.Explainer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ps.ex == nil || ps.exTab != tab {
		ps.ex = explain.NewExplainer(tab, ps.patterns, explain.Options{Parallelism: s.ExplainParallelism})
		ps.exTab = tab
		if m := ps.maintainer; m != nil && m.Table() == tab {
			ps.ex.SetGroupingSource(m)
		}
	}
	return ps.ex
}

// Table looks up a loaded table by name.
func (s *Server) Table(name string) (*engine.Table, bool) { return s.table(name) }

// table looks up a loaded table.
func (s *Server) table(name string) (*engine.Table, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	return t, ok
}

// ---- plumbing ----

func readJSON(w http.ResponseWriter, r *http.Request, dst interface{}) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	// Reject trailing garbage.
	if dec.More() {
		httpError(w, http.StatusBadRequest, "unexpected trailing data in request body")
		return false
	}
	io.Copy(io.Discard, r.Body)
	return true
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
