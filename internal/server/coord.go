package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cape/internal/engine"
	"cape/internal/httpc"
	"cape/internal/mining"
	"cape/internal/pattern"
	"cape/internal/value"
)

// Coordinator is the front door of a sharded CAPE deployment (DESIGN.md
// §15): N shard capeservers each hold one hash partition of every
// table, and the coordinator presents them as a single /v1 API.
//
// Partitioning is by a fixed shard-key attribute set K: a row lives on
// shard hash(row[K]) mod N. The deployment serves only patterns whose
// partition attributes F contain K — the coordinator enforces this at
// admission — which is what makes every question local to one shard:
// for a question grouped by G ⊇ K about tuple t, every candidate
// counterbalance t' of a served pattern satisfies t'[F] = t[F], hence
// t'[K] = t[K], so t', the NORM selection, and the question's own group
// all live on the shard owning hash(t[K]). The coordinator routes the
// question there and returns the owner's answer verbatim — byte-
// identical to a single node holding all the rows and the same admitted
// pattern set. Questions whose group-by does not cover K are rejected
// with 422 rather than answered wrongly from partial groups.
//
// Writes fan out by key: /v1/append splits the batch by row owner,
// appends each piece to its shard (durability = min walSeq across the
// shards touched), folds the refreshed per-shard candidate evidence
// into global pattern admission, and pushes the new admitted set to
// every shard before any explanation can observe the new rows.
//
// The read path has admission control: a bounded queue sheds excess
// concurrent explains with 429 + Retry-After instead of letting
// latency collapse, and all shard traffic flows through one keep-alive
// transport with a bounded in-flight fan-out.
type Coordinator struct {
	mux    *http.ServeMux
	cfg    CoordConfig
	client *http.Client
	sem    chan struct{} // bounds concurrent outgoing shard calls
	queue  chan struct{} // read-path admission; full ⇒ shed 429

	// appendMu mirrors the single-node server's write exclusion at
	// deployment scope: appends, mines, loads, and admission pushes run
	// exclusively; explains and status share the read side. The window
	// between a shard append and the matching admission push is
	// invisible to readers because both happen under the write lock.
	appendMu sync.RWMutex

	mu       sync.Mutex
	tables   map[string]*coordTable
	sets     map[string]*coordSet
	tableGen map[string]uint64 // load counter per table name, survives reloads
	nextID   int
}

// CoordConfig configures NewCoordinator.
type CoordConfig struct {
	// Shards are the base URLs of the shard servers, e.g.
	// "http://10.0.0.1:8081". Order defines shard indices and must be
	// stable across coordinator restarts (the hash routing depends on
	// position).
	Shards []string
	// Key is the shard-key attribute set K.
	Key []string
	// ShardTimeout bounds each shard call (default 60s).
	ShardTimeout time.Duration
	// MaxInflight bounds concurrent outgoing shard requests across all
	// client requests (default 4× shard count, min 16).
	MaxInflight int
	// MaxQueue is the read-path admission limit: at most MaxQueue
	// explain/batch requests are in flight; beyond that the coordinator
	// sheds with 429 (default 256).
	MaxQueue int
	// Client overrides the HTTP client (default: httpc.NewClient sized
	// for the shard count).
	Client *http.Client
	// MaxBodyBytes caps request bodies (default 64 MiB).
	MaxBodyBytes int64
	// AnswerCacheSize bounds each pattern set's coordinator-tier answer
	// cache (entries). 0 uses the default; negative disables caching, so
	// every explain fans out to its owning shard.
	AnswerCacheSize int
}

// coordTable is the coordinator's view of one partitioned table.
type coordTable struct {
	part   engine.Partitioner
	cols   []string
	keyIdx []int
	// shardRows is the last acknowledged row count per shard, indexed
	// like cfg.Shards: set at load, refreshed from each append ack.
	// Mutated only under the deployment write lock (load and append
	// are both appendMu-exclusive), so the sum reported by an append
	// is the deployment-wide table total — matching the single-node
	// append response, which reports the full table's rows.
	shardRows []int
	// epochs is the last acknowledged table epoch per shard, refreshed
	// from append acks. Answer-cache keys embed the owning shard's
	// epoch, so an append invalidates only the questions routed to the
	// shards it touched — hot questions on untouched shards keep
	// hitting. Mutated only under the deployment write lock.
	epochs []uint64
	// gen disambiguates reloads: shard epochs restart when a table is
	// re-pushed, so (gen, epoch) is what never repeats.
	gen uint64
}

// coordSet tracks one logical pattern set across shards.
type coordSet struct {
	id      string
	table   string
	shardPS []string // per-shard pattern set id, indexed like cfg.Shards
	th      pattern.Thresholds
	options MineRequest
	// stats holds the last known candidate evidence per shard; appends
	// replace only the shards they touched (fragments are disjoint, so
	// untouched shards' evidence is still current).
	stats [][]mining.CandStat
	// admitted is the current globally-admitted key set, sorted.
	admitted []string
	// version counts changes to the admitted set. It is bumped only
	// when an append's re-admission actually changes the served keys —
	// an append that leaves admission unchanged invalidates only the
	// shards it touched (via their epochs), not the whole keyspace.
	version uint64
	// anscache holds rendered shard answers keyed by question × version
	// × table generation × owning-shard epoch, so repeated hot
	// questions never fan out. Nil when caching is disabled.
	anscache *answerCache
}

// NewCoordinator validates the configuration and returns a ready
// handler. It performs no shard I/O; shards are contacted lazily per
// request.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("coordinator needs at least one shard URL")
	}
	for i, u := range cfg.Shards {
		if u == "" {
			return nil, fmt.Errorf("shard %d has an empty URL", i)
		}
		cfg.Shards[i] = strings.TrimSuffix(u, "/")
	}
	p := engine.Partitioner{Key: cfg.Key, N: len(cfg.Shards)}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 60 * time.Second
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4 * len(cfg.Shards)
		if cfg.MaxInflight < 16 {
			cfg.MaxInflight = 16
		}
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 256
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.Client == nil {
		cfg.Client = httpc.NewClient(len(cfg.Shards))
	}
	c := &Coordinator{
		cfg:      cfg,
		client:   cfg.Client,
		sem:      make(chan struct{}, cfg.MaxInflight),
		queue:    make(chan struct{}, cfg.MaxQueue),
		tables:   make(map[string]*coordTable),
		sets:     make(map[string]*coordSet),
		tableGen: make(map[string]uint64),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1", c.handleStatus)
	mux.HandleFunc("GET /v1/{$}", c.handleStatus)
	mux.HandleFunc("GET /v1/tables", c.handleListTables)
	mux.HandleFunc("POST /v1/tables", c.handleLoadTable)
	mux.HandleFunc("POST /v1/append", c.handleAppend)
	mux.HandleFunc("POST /v1/mine", c.handleMine)
	mux.HandleFunc("GET /v1/patterns/{id}", c.handleGetPatterns)
	mux.HandleFunc("POST /v1/explain", c.handleExplain)
	mux.HandleFunc("POST /v1/explain/batch", c.handleExplainBatch)
	for _, p := range []string{"/v1/query", "/v1/generalize", "/v1/intervene", "/v1/baseline"} {
		path := p
		mux.HandleFunc("POST "+path, func(w http.ResponseWriter, _ *http.Request) {
			httpError(w, http.StatusNotImplemented, "%s is not available on a shard coordinator; run it against a single capeserver", path)
		})
	}
	c.mux = mux
	return c, nil
}

// ServeHTTP implements http.Handler with the deployment-level
// write/read exclusion and read-path load shedding.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes)
	path := strings.TrimSuffix(r.URL.Path, "/")
	if r.Method == http.MethodPost &&
		(path == "/v1/append" || path == "/v1/mine" || path == "/v1/tables") {
		c.appendMu.Lock()
		defer c.appendMu.Unlock()
		c.mux.ServeHTTP(w, r)
		return
	}
	if r.Method == http.MethodPost && (path == "/v1/explain" || path == "/v1/explain/batch") {
		// Open-loop overload protection: when MaxQueue explains are
		// already in flight, shedding immediately is strictly better
		// than queueing — the client can retry against a server that
		// has caught up, instead of timing out behind an unbounded
		// backlog.
		select {
		case c.queue <- struct{}{}:
			defer func() { <-c.queue }()
		default:
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, "explain admission queue is full (%d in flight); retry", c.cfg.MaxQueue)
			return
		}
	}
	c.appendMu.RLock()
	defer c.appendMu.RUnlock()
	c.mux.ServeHTTP(w, r)
}

// ---- shard I/O ----

// shardCall is one request to one shard: bounded by the fan-out
// semaphore and the per-shard deadline, returning status + body.
func (c *Coordinator) shardCall(ctx context.Context, shard int, method, path, contentType string, body []byte) (int, []byte, error) {
	c.sem <- struct{}{}
	defer func() { <-c.sem }()
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, c.cfg.Shards[shard]+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

func (c *Coordinator) shardJSON(ctx context.Context, shard int, method, path string, in, out interface{}) (int, []byte, error) {
	var body []byte
	var err error
	if in != nil {
		body, err = json.Marshal(in)
		if err != nil {
			return 0, nil, err
		}
	}
	status, b, err := c.shardCall(ctx, shard, method, path, "application/json", body)
	if err != nil {
		return status, b, err
	}
	if out != nil && status/100 == 2 {
		if err := json.Unmarshal(b, out); err != nil {
			return status, b, fmt.Errorf("decoding shard %d response: %w", shard, err)
		}
	}
	return status, b, nil
}

// shardErrf renders a failed shard interaction as a gateway error.
func shardErrf(w http.ResponseWriter, shard int, url string, status int, body []byte, err error) {
	if err != nil {
		httpError(w, http.StatusBadGateway, "shard %d (%s): %v", shard, url, err)
		return
	}
	msg := strings.TrimSpace(string(body))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	// Client-class shard errors (bad question, unknown table) pass
	// through with their original status; server-class become 502.
	if status/100 == 4 {
		httpError(w, status, "%s", msg)
		return
	}
	httpError(w, http.StatusBadGateway, "shard %d (%s) returned %d: %s", shard, url, status, msg)
}

// ---- tables ----

func (c *Coordinator) handleLoadTable(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		httpError(w, http.StatusBadRequest, "query parameter 'name' is required")
		return
	}
	tab, err := engine.ReadCSV(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "loading CSV: %v", err)
		return
	}
	part := engine.Partitioner{Key: c.cfg.Key, N: len(c.cfg.Shards)}
	keyIdx, err := part.KeyIndices(tab.Schema())
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "table %q cannot be partitioned by key %v: %v", name, c.cfg.Key, err)
		return
	}
	parts, err := part.PartitionTable(tab)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	type res struct {
		shard  int
		status int
		body   []byte
		err    error
	}
	results := make([]res, len(parts))
	var wg sync.WaitGroup
	for i, pt := range parts {
		wg.Add(1)
		go func(i int, pt *engine.Table) {
			defer wg.Done()
			var buf bytes.Buffer
			if err := pt.WriteCSV(&buf); err != nil {
				results[i] = res{shard: i, err: err}
				return
			}
			status, body, err := c.shardCall(r.Context(), i, http.MethodPost, "/v1/tables?name="+name, "text/csv", buf.Bytes())
			results[i] = res{shard: i, status: status, body: body, err: err}
		}(i, pt)
	}
	wg.Wait()
	for _, re := range results {
		if re.err != nil || re.status != http.StatusCreated {
			shardErrf(w, re.shard, c.cfg.Shards[re.shard], re.status, re.body, re.err)
			return
		}
	}
	shardRows := make([]int, len(parts))
	for i, pt := range parts {
		shardRows[i] = pt.NumRows()
	}
	c.mu.Lock()
	c.tableGen[name]++
	c.tables[name] = &coordTable{
		part: part, cols: tab.Schema().Names(), keyIdx: keyIdx,
		shardRows: shardRows, epochs: make([]uint64, len(parts)),
		gen: c.tableGen[name],
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]interface{}{
		"name": name, "rows": tab.NumRows(), "columns": tab.Schema().Names(),
		"shards": len(parts),
	})
}

func (c *Coordinator) handleListTables(w http.ResponseWriter, r *http.Request) {
	type info struct {
		Name    string   `json:"name"`
		Rows    int      `json:"rows"`
		Columns []string `json:"columns"`
	}
	totals := make(map[string]*info)
	for i := range c.cfg.Shards {
		var shardTables []info
		status, body, err := c.shardJSON(r.Context(), i, http.MethodGet, "/v1/tables", nil, &shardTables)
		if err != nil || status != http.StatusOK {
			shardErrf(w, i, c.cfg.Shards[i], status, body, err)
			return
		}
		for _, t := range shardTables {
			if agg, ok := totals[t.Name]; ok {
				agg.Rows += t.Rows
			} else {
				tc := t
				totals[t.Name] = &tc
			}
		}
	}
	out := make([]info, 0, len(totals))
	for _, t := range totals {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

// ---- mining and admission ----

func (c *Coordinator) handleMine(w http.ResponseWriter, r *http.Request) {
	var req MineRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	_, ok := c.tables[req.Table]
	c.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown table %q", req.Table)
		return
	}
	if m := strings.ToLower(req.Miner); m != "" && m != "arpmine" {
		httpError(w, http.StatusBadRequest, "sharded mining supports only the arpmine miner, not %q", req.Miner)
		return
	}
	if req.UseFDs {
		httpError(w, http.StatusBadRequest, "sharded mining is incompatible with useFDs")
		return
	}
	opt, err := req.options()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Shards mine with the real per-fragment gates (θ, local support)
	// but loosened global gates: λ and Δ are statements about the whole
	// fragment population, which no single shard sees. The coordinator
	// applies them below, to the summed evidence.
	shardReq := req
	shardReq.WithStats = true
	shardReq.Theta = opt.Thresholds.Theta
	shardReq.LocalSupport = opt.Thresholds.LocalSupport
	shardReq.Lambda = 0
	shardReq.GlobalSupport = 1

	type mineResp struct {
		ID        string            `json:"id"`
		CandStats []mining.CandStat `json:"candStats"`
	}
	type res struct {
		resp   mineResp
		status int
		body   []byte
		err    error
	}
	results := make([]res, len(c.cfg.Shards))
	var wg sync.WaitGroup
	for i := range c.cfg.Shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var mr mineResp
			status, body, err := c.shardJSON(r.Context(), i, http.MethodPost, "/v1/mine", shardReq, &mr)
			results[i] = res{resp: mr, status: status, body: body, err: err}
		}(i)
	}
	wg.Wait()
	cs := &coordSet{
		table:   req.Table,
		shardPS: make([]string, len(c.cfg.Shards)),
		th:      opt.Thresholds,
		options: req,
		stats:   make([][]mining.CandStat, len(c.cfg.Shards)),
	}
	if c.cfg.AnswerCacheSize >= 0 {
		cs.anscache = newAnswerCache(c.cfg.AnswerCacheSize)
	}
	for i, re := range results {
		if re.err != nil || re.status != http.StatusCreated {
			shardErrf(w, i, c.cfg.Shards[i], re.status, re.body, re.err)
			return
		}
		cs.shardPS[i] = re.resp.ID
		cs.stats[i] = re.resp.CandStats
	}
	cs.admitted = admittedKeys(cs.stats, cs.th, c.cfg.Key)
	if !c.pushAdmission(w, r.Context(), cs) {
		return
	}
	c.mu.Lock()
	c.nextID++
	cs.id = "ps-" + strconv.Itoa(c.nextID)
	c.sets[cs.id] = cs
	c.mu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]interface{}{
		"id": cs.id, "table": cs.table, "patterns": len(cs.admitted),
		"options": req, "shards": cs.shardPS,
	})
}

// admittedKeys applies the real global gates to the summed per-shard
// evidence, plus the deployment's locality gate: only patterns whose
// partition attributes contain the shard key are servable (candidates
// of any other pattern would straddle shards). Keys come out sorted.
func admittedKeys(stats [][]mining.CandStat, th pattern.Thresholds, key []string) []string {
	type evidence struct{ good, supp int }
	sum := make(map[string]*evidence)
	for _, shard := range stats {
		for _, cs := range shard {
			e, ok := sum[cs.Key]
			if !ok {
				e = &evidence{}
				sum[cs.Key] = e
			}
			e.good += cs.Good
			e.supp += cs.Supported
		}
	}
	var out []string
	for k, e := range sum {
		if e.good == 0 || e.supp == 0 {
			continue
		}
		if e.good < th.GlobalSupport {
			continue
		}
		if float64(e.good)/float64(e.supp) < th.Lambda {
			continue
		}
		if !keyInPatternF(k, key) {
			continue
		}
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// equalSortedKeys reports whether two sorted key lists are identical.
func equalSortedKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// keyInPatternF reports whether every shard-key attribute appears in
// the F part of a canonical pattern key ("f1,f2|v|agg|model").
func keyInPatternF(patternKey string, key []string) bool {
	f := patternKey
	if i := strings.IndexByte(f, '|'); i >= 0 {
		f = f[:i]
	}
	attrs := strings.Split(f, ",")
	for _, k := range key {
		found := false
		for _, a := range attrs {
			if a == k {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// pushAdmission sends the set's current admitted keys to every shard.
// Returns false after writing an error response.
func (c *Coordinator) pushAdmission(w http.ResponseWriter, ctx context.Context, cs *coordSet) bool {
	type res struct {
		status int
		body   []byte
		err    error
	}
	results := make([]res, len(c.cfg.Shards))
	var wg sync.WaitGroup
	for i := range c.cfg.Shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body, err := c.shardJSON(ctx, i, http.MethodPost,
				"/v1/patterns/"+cs.shardPS[i]+"/admit", AdmitRequest{Keys: cs.admitted}, nil)
			results[i] = res{status: status, body: body, err: err}
		}(i)
	}
	wg.Wait()
	for i, re := range results {
		if re.err != nil || re.status != http.StatusOK {
			shardErrf(w, i, c.cfg.Shards[i], re.status, re.body, re.err)
			return false
		}
	}
	return true
}

func (c *Coordinator) handleGetPatterns(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	cs, ok := c.sets[id]
	c.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown pattern set %q", id)
		return
	}
	// Display strings come from the shards; the global counters come
	// from the coordinator's summed evidence (a shard's own confidence
	// reflects only its partition).
	display := make(map[string]string)
	for i := range c.cfg.Shards {
		var resp struct {
			Patterns []patternDTO `json:"patterns"`
		}
		status, body, err := c.shardJSON(r.Context(), i, http.MethodGet, "/v1/patterns/"+cs.shardPS[i], nil, &resp)
		if err != nil || status != http.StatusOK {
			shardErrf(w, i, c.cfg.Shards[i], status, body, err)
			return
		}
		for _, p := range resp.Patterns {
			if _, ok := display[p.Key]; !ok {
				display[p.Key] = p.Pattern
			}
		}
	}
	type evidence struct{ good, supp, frags int }
	sum := make(map[string]*evidence)
	for _, shard := range cs.stats {
		for _, st := range shard {
			e, ok := sum[st.Key]
			if !ok {
				e = &evidence{}
				sum[st.Key] = e
			}
			e.good += st.Good
			e.supp += st.Supported
			e.frags += st.Fragments
		}
	}
	out := make([]patternDTO, 0, len(cs.admitted))
	for _, k := range cs.admitted {
		e := sum[k]
		if e == nil {
			continue
		}
		out = append(out, patternDTO{
			Pattern:    display[k],
			Key:        k,
			Confidence: float64(e.good) / float64(e.supp),
			Locals:     e.good,
			Supported:  e.supp,
			Fragments:  e.frags,
		})
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"id": cs.id, "table": cs.table, "patterns": out,
	})
}

// ---- append ----

func (c *Coordinator) handleAppend(w http.ResponseWriter, r *http.Request) {
	var req AppendRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	ct, ok := c.tables[req.Table]
	c.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown table %q", req.Table)
		return
	}
	// Parse rows with the shard's own rules so routing hashes exactly
	// the values the shard will store; forward the raw JSON untouched.
	perShard := make([][][]json.RawMessage, len(c.cfg.Shards))
	for i, raw := range req.Rows {
		t, err := value.ParseJSONTuple(raw)
		if err != nil {
			httpError(w, http.StatusBadRequest, "row %d: %v", i, err)
			return
		}
		if len(t) != len(ct.cols) {
			httpError(w, http.StatusBadRequest, "row %d has %d values, table %q has %d columns", i, len(t), req.Table, len(ct.cols))
			return
		}
		s := ct.part.ShardOfRow(t, ct.keyIdx)
		perShard[s] = append(perShard[s], raw)
	}

	type appendResp struct {
		Appended    int               `json:"appended"`
		Rows        int               `json:"rows"`
		Epoch       uint64            `json:"epoch"`
		PatternSets []appendSetStatus `json:"patternSets"`
		WalSeq      uint64            `json:"walSeq"`
		Durable     bool              `json:"durable"`
		Table       string            `json:"table"`
	}
	type res struct {
		resp   appendResp
		status int
		body   []byte
		err    error
		sent   bool
	}
	results := make([]res, len(c.cfg.Shards))
	var wg sync.WaitGroup
	for i := range c.cfg.Shards {
		if len(perShard[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var ar appendResp
			status, body, err := c.shardJSON(r.Context(), i, http.MethodPost, "/v1/append",
				AppendRequest{Table: req.Table, Rows: perShard[i]}, &ar)
			results[i] = res{resp: ar, status: status, body: body, err: err, sent: true}
		}(i)
	}
	wg.Wait()
	for i, re := range results {
		if re.sent && (re.err != nil || re.status != http.StatusOK) {
			// Keyed routing means sibling shards may already have
			// appended their pieces; surface which shard failed so the
			// operator can reconcile rather than silently diverge.
			shardErrf(w, i, c.cfg.Shards[i], re.status, re.body, re.err)
			return
		}
	}

	// Fold the refreshed evidence into every set over this table and
	// re-push admission, all before releasing the write lock.
	c.mu.Lock()
	var sets []*coordSet
	for _, cs := range c.sets {
		if cs.table == req.Table {
			sets = append(sets, cs)
		}
	}
	c.mu.Unlock()
	sort.Slice(sets, func(i, j int) bool { return sets[i].id < sets[j].id })
	setStatuses := make([]map[string]interface{}, 0, len(sets))
	for _, cs := range sets {
		// Set ids are per shard (every shard calls its first set "ps-1"),
		// so shard i's status is matched against shard i's own id.
		for i, re := range results {
			if !re.sent {
				continue
			}
			for _, st := range re.resp.PatternSets {
				if st.ID == cs.shardPS[i] && st.CandStats != nil {
					cs.stats[i] = st.CandStats
				}
			}
		}
		admitted := admittedKeys(cs.stats, cs.th, c.cfg.Key)
		// The version bump is what invalidates cached answers on shards
		// this append did not touch, so it happens only when admission
		// actually changed; epoch-keyed invalidation covers the rest.
		if !equalSortedKeys(admitted, cs.admitted) {
			cs.version++
		}
		cs.admitted = admitted
		if !c.pushAdmission(w, r.Context(), cs) {
			return
		}
		setStatuses = append(setStatuses, map[string]interface{}{
			"id": cs.id, "status": "maintained", "patterns": len(cs.admitted),
		})
	}

	appended := 0
	var minWal uint64
	durable := true
	shardAcks := make([]map[string]interface{}, 0, len(results))
	for i, re := range results {
		if !re.sent {
			continue
		}
		appended += re.resp.Appended
		ct.shardRows[i] = re.resp.Rows
		ct.epochs[i] = re.resp.Epoch
		ack := map[string]interface{}{
			"shard": i, "appended": re.resp.Appended, "rows": re.resp.Rows, "epoch": re.resp.Epoch,
		}
		if re.resp.Durable {
			ack["walSeq"] = re.resp.WalSeq
			if minWal == 0 || re.resp.WalSeq < minWal {
				minWal = re.resp.WalSeq
			}
		} else {
			durable = false
		}
		shardAcks = append(shardAcks, ack)
	}
	totalRows := 0
	for _, n := range ct.shardRows {
		totalRows += n
	}
	resp := map[string]interface{}{
		"table":       req.Table,
		"appended":    appended,
		"rows":        totalRows,
		"patternSets": setStatuses,
		"shards":      shardAcks,
	}
	if durable && minWal > 0 {
		// The weakest shard bounds the deployment's durability: every
		// acknowledged row is framed at least up to its own shard's
		// walSeq, and minWalSeq is the floor across the shards touched.
		resp["minWalSeq"] = minWal
		resp["durable"] = true
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- explain ----

// ownerOf routes a question to the shard owning its group: the
// shard-key values are read out of the question tuple (422 when the
// group-by does not cover the key — such a group straddles shards and
// no shard can answer it alone).
func (c *Coordinator) ownerOf(ct *coordTable, groupBy, tuple []string) (int, error) {
	if len(tuple) != len(groupBy) {
		return 0, fmt.Errorf("groupBy and tuple must be non-empty and the same length")
	}
	keyVals := make(value.Tuple, len(c.cfg.Key))
	for i, k := range c.cfg.Key {
		pos := -1
		for j, g := range groupBy {
			if g == k {
				pos = j
				break
			}
		}
		if pos < 0 {
			return 0, fmt.Errorf("sharded questions must group by the shard key: %q is not in groupBy %v", k, groupBy)
		}
		keyVals[i] = value.Parse(tuple[pos])
	}
	return ct.part.ShardOf(keyVals), nil
}

func (c *Coordinator) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req ExplainRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	cs, ok := c.sets[req.Patterns]
	var ct *coordTable
	if ok {
		ct = c.tables[cs.table]
	}
	c.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown pattern set %q", req.Patterns)
		return
	}
	if ct == nil {
		httpError(w, http.StatusNotFound, "table %q for pattern set is gone", cs.table)
		return
	}
	owner, err := c.ownerOf(ct, req.GroupBy, req.Tuple)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	// The owner holds the whole group, every candidate, and the NORM
	// selection (locality contract), so its answer — produced by the
	// same engine over the same rows in the same order — is forwarded
	// verbatim: byte-identical to single-node output. The coordinator
	// caches the raw reply bytes keyed by the set version, table
	// generation, and the owner's epoch: a hit replays the exact bytes
	// the shard produced without any fan-out, and answers from shards
	// an append did not touch survive the append.
	compute := func() (int, interface{}, bool) {
		shardReq := req
		shardReq.Patterns = cs.shardPS[owner]
		status, body, err := c.shardJSON(r.Context(), owner, http.MethodPost, "/v1/explain", shardReq, nil)
		ans := &coordAnswer{status: status, body: body, err: err}
		// Only 200 and 400 are deterministic functions of the keyed
		// state; transport failures and transient shard statuses (e.g.
		// 404 during re-mining) must be retried, not replayed.
		cacheable := err == nil && (status == http.StatusOK || status == http.StatusBadRequest)
		return status, ans, cacheable
	}
	var ans *coordAnswer
	if cs.anscache == nil {
		_, v, _ := compute()
		ans = v.(*coordAnswer)
	} else {
		key := ansKey('e', cs.version, ct.gen, ct.epochs[owner],
			QuestionSpec{GroupBy: req.GroupBy, Aggregate: req.Aggregate, Tuple: req.Tuple, Dir: req.Dir},
			req.K, req.Parallelism, req.Numeric, req.Weights)
		_, v, _ := cs.anscache.do(key, compute)
		ans = v.(*coordAnswer)
	}
	if ans.err != nil {
		shardErrf(w, owner, c.cfg.Shards[owner], ans.status, ans.body, ans.err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(ans.status)
	_, _ = w.Write(ans.body)
}

// coordAnswer is a cached (or just-computed) shard explain reply: the
// verbatim status and body bytes, immutable once stored.
type coordAnswer struct {
	status int
	body   []byte
	err    error
}

func (c *Coordinator) handleExplainBatch(w http.ResponseWriter, r *http.Request) {
	var req ExplainBatchRequest
	if !readJSON(w, r, &req) {
		return
	}
	if len(req.Questions) == 0 {
		httpError(w, http.StatusBadRequest, "batch needs at least one question")
		return
	}
	if len(req.Questions) > maxBatchQuestions {
		httpError(w, http.StatusBadRequest, "batch of %d questions exceeds the limit of %d", len(req.Questions), maxBatchQuestions)
		return
	}
	c.mu.Lock()
	cs, ok := c.sets[req.Patterns]
	var ct *coordTable
	if ok {
		ct = c.tables[cs.table]
	}
	c.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown pattern set %q", req.Patterns)
		return
	}
	if ct == nil {
		httpError(w, http.StatusNotFound, "table %q for pattern set is gone", cs.table)
		return
	}

	// Scatter: each question goes to its owning shard's sub-batch; the
	// per-shard batches keep their relative question order so the
	// shard-side builder memo and batch cache behave as on one node.
	// Items with a cached answer never enter a sub-batch — a fully
	// cached batch performs zero shard calls.
	items := make([]batchItemDTO, len(req.Questions))
	keys := make([]string, len(req.Questions))
	subIdx := make([][]int, len(c.cfg.Shards)) // original index per shard sub-batch
	subQs := make([][]QuestionSpec, len(c.cfg.Shards))
	for i, spec := range req.Questions {
		items[i].Index = i
		owner, err := c.ownerOf(ct, spec.GroupBy, spec.Tuple)
		if err != nil {
			items[i].Status = http.StatusUnprocessableEntity
			items[i].Error = err.Error()
			continue
		}
		if cs.anscache != nil {
			keys[i] = ansKey('b', cs.version, ct.gen, ct.epochs[owner], spec,
				req.K, req.Parallelism, req.Numeric, req.Weights)
			if _, v, ok := cs.anscache.lookup(keys[i]); ok {
				items[i] = reindexed(v.(batchItemDTO), i)
				continue
			}
		}
		subIdx[owner] = append(subIdx[owner], i)
		subQs[owner] = append(subQs[owner], spec)
	}
	type batchResp struct {
		Items []batchItemDTO `json:"items"`
	}
	type res struct {
		resp   batchResp
		status int
		body   []byte
		err    error
		sent   bool
	}
	results := make([]res, len(c.cfg.Shards))
	var wg sync.WaitGroup
	for s := range c.cfg.Shards {
		if len(subQs[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sub := ExplainBatchRequest{
				Patterns: cs.shardPS[s], Questions: subQs[s],
				K: req.K, Parallelism: req.Parallelism,
				Numeric: req.Numeric, Weights: req.Weights,
			}
			var br batchResp
			status, body, err := c.shardJSON(r.Context(), s, http.MethodPost, "/v1/explain/batch", sub, &br)
			results[s] = res{resp: br, status: status, body: body, err: err, sent: true}
		}(s)
	}
	wg.Wait()
	for s, re := range results {
		if !re.sent {
			continue
		}
		if re.err != nil || re.status != http.StatusOK {
			shardErrf(w, s, c.cfg.Shards[s], re.status, re.body, re.err)
			return
		}
		if len(re.resp.Items) != len(subIdx[s]) {
			httpError(w, http.StatusBadGateway, "shard %d answered %d of %d batch items", s, len(re.resp.Items), len(subIdx[s]))
			return
		}
		// Gather: items come back in sub-batch order; restore the
		// caller's indices. Deterministic items (200/400) are cached at
		// index 0 for future batches.
		for j, it := range re.resp.Items {
			orig := subIdx[s][j]
			it.Index = orig
			items[orig] = it
			if cs.anscache != nil && (it.Status == http.StatusOK || it.Status == http.StatusBadRequest) {
				cs.anscache.insert(keys[orig], it.Status, reindexed(it, 0))
			}
		}
	}
	okCount := 0
	for _, it := range items {
		if it.Status == http.StatusOK {
			okCount++
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"items":  items,
		"ok":     okCount,
		"failed": len(items) - okCount,
	})
}

// ---- status ----

// coordShardStatus is the decoded shard GET /v1 body plus reachability.
type coordShardStatus struct {
	URL    string `json:"url"`
	OK     bool   `json:"ok"`
	Error  string `json:"error,omitempty"`
	Tables []struct {
		Name          string `json:"name"`
		Rows          int    `json:"rows"`
		Epoch         uint64 `json:"epoch"`
		Durable       bool   `json:"durable,omitempty"`
		WriteDisabled bool   `json:"writeDisabled,omitempty"`
		WriteError    string `json:"writeError,omitempty"`
	} `json:"tables,omitempty"`
	PatternSets []struct {
		ID        string `json:"id"`
		Table     string `json:"table"`
		Patterns  int    `json:"patterns"`
		Freshness string `json:"freshness"`
		Stale     bool   `json:"stale"`
	} `json:"patternSets,omitempty"`
}

// handleStatus aggregates GET /v1 across shards: deployment-wide table
// totals, per-set freshness (worst across shards), and an explicit
// diverged list — any shard that is unreachable, write-disabled, or
// reports a diverged pattern set.
func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	shards := make([]coordShardStatus, len(c.cfg.Shards))
	var wg sync.WaitGroup
	for i := range c.cfg.Shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shards[i].URL = c.cfg.Shards[i]
			var body struct {
				Tables      json.RawMessage `json:"tables"`
				PatternSets json.RawMessage `json:"patternSets"`
			}
			status, raw, err := c.shardJSON(r.Context(), i, http.MethodGet, "/v1", nil, &body)
			if err != nil {
				shards[i].Error = err.Error()
				return
			}
			if status != http.StatusOK {
				shards[i].Error = fmt.Sprintf("status %d: %s", status, strings.TrimSpace(string(raw)))
				return
			}
			_ = json.Unmarshal(body.Tables, &shards[i].Tables)
			_ = json.Unmarshal(body.PatternSets, &shards[i].PatternSets)
			shards[i].OK = true
		}(i)
	}
	wg.Wait()

	type tableAgg struct {
		Name          string `json:"name"`
		Rows          int    `json:"rows"`
		Durable       bool   `json:"durable,omitempty"`
		WriteDisabled bool   `json:"writeDisabled,omitempty"`
	}
	tables := make(map[string]*tableAgg)
	var diverged []string
	divergedSeen := make(map[string]bool)
	markDiverged := func(i int, why string) {
		entry := fmt.Sprintf("%s: %s", c.cfg.Shards[i], why)
		if !divergedSeen[entry] {
			divergedSeen[entry] = true
			diverged = append(diverged, entry)
		}
	}
	for i, sh := range shards {
		if !sh.OK {
			markDiverged(i, "unreachable: "+sh.Error)
			continue
		}
		for _, t := range sh.Tables {
			agg, ok := tables[t.Name]
			if !ok {
				agg = &tableAgg{Name: t.Name}
				tables[t.Name] = agg
			}
			agg.Rows += t.Rows
			agg.Durable = agg.Durable || t.Durable
			if t.WriteDisabled {
				agg.WriteDisabled = true
				markDiverged(i, fmt.Sprintf("table %q write-disabled: %s", t.Name, t.WriteError))
			}
		}
	}

	c.mu.Lock()
	setIDs := make([]string, 0, len(c.sets))
	for id := range c.sets {
		setIDs = append(setIDs, id)
	}
	sort.Strings(setIDs)
	type setAgg struct {
		ID        string `json:"id"`
		Table     string `json:"table"`
		Patterns  int    `json:"patterns"`
		Freshness string `json:"freshness"`
		// Version counts admission changes; with the per-shard epochs
		// it keys the coordinator-tier answer cache, whose counters
		// follow. A high hit rate here means questions are answered
		// without any shard fan-out.
		Version uint64            `json:"version"`
		Cache   *answerCacheStats `json:"answerCache,omitempty"`
	}
	sets := make([]setAgg, 0, len(setIDs))
	for _, id := range setIDs {
		cs := c.sets[id]
		agg := setAgg{ID: id, Table: cs.table, Patterns: len(cs.admitted), Freshness: "fresh", Version: cs.version}
		if cs.anscache != nil {
			acs := cs.anscache.stats()
			agg.Cache = &acs
		}
		for i, sh := range shards {
			if !sh.OK {
				agg.Freshness = "unknown"
				continue
			}
			for _, ss := range sh.PatternSets {
				if ss.ID != cs.shardPS[i] {
					continue
				}
				switch ss.Freshness {
				case "diverged":
					agg.Freshness = "diverged"
					markDiverged(i, fmt.Sprintf("pattern set %s diverged from table %q", ss.ID, ss.Table))
				case "behind", "unknown":
					if agg.Freshness == "fresh" {
						agg.Freshness = ss.Freshness
					}
				}
			}
		}
		sets = append(sets, agg)
	}
	c.mu.Unlock()

	tableList := make([]*tableAgg, 0, len(tables))
	for _, t := range tables {
		tableList = append(tableList, t)
	}
	sort.Slice(tableList, func(i, j int) bool { return tableList[i].Name < tableList[j].Name })
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"role":        "coordinator",
		"shardKey":    c.cfg.Key,
		"shards":      shards,
		"tables":      tableList,
		"patternSets": sets,
		"diverged":    diverged,
	})
}
