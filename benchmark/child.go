package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cape/internal/engine"
	"cape/internal/explain"
	"cape/internal/mining"
	"cape/internal/pattern"
	"cape/internal/server"
	"cape/internal/store"
	"cape/internal/value"
)

// probeQuestions are extra distinct questions at the end of the pool,
// never asked in a request phase: the quiescent probes of a traced run
// (batch of 16, invalidation share) need questions no cache has seen.
const probeQuestions = 96

// runConfig is what a measuring process is told.
type runConfig struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Trace     bool   `json:"trace"`
	Tiny      bool   `json:"tiny"`
	SetupOnly bool   `json:"setupOnly"` // set up, mine once, report, exit
	Workdir   string `json:"workdir"`
	TraceFile string `json:"traceFile,omitempty"`
	// SpawnedNs is the parent's clock just before it started this
	// process, so set-up time counts from process start.
	SpawnedNs int64 `json:"spawnedNs"`
}

// metric is one reported number with what it was computed from.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`    // samples behind the value
	Stat  string  `json:"stat"` // how the samples became the value
}

// runResult is one run of one workload: what a measuring process prints
// (one JSON line) and what a report lists.
type runResult struct {
	Config    runConfig          `json:"config"`
	Sizes     sizes              `json:"sizes"`
	Hashes    map[string]string  `json:"inputHashes"`
	SetupS    float64            `json:"setupS"`
	MineS     []float64          `json:"mineS"`
	Patterns  int                `json:"patterns"`
	PhaseS    map[string]float64 `json:"phaseSeconds"` // wall time of each lifecycle phase in the measuring process
	Metrics   map[string]metric  `json:"metrics,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Notes     []string           `json:"notes,omitempty"`
}

// run is one workload lifecycle in this process.
type run struct {
	cfg  runConfig
	spec *workloadSpec
	sz   sizes
	res  *runResult

	qs      []question // request-phase pool, then probeQuestions extras
	picks   []int
	batches [][]value.Tuple // batch 0 is prepare's warm-up append; one spare at the end for probes
	// admitted, sharded runs only: the keys the coordinator served after
	// each checkpoint append (see oracle.admitted).
	admitted map[int]map[string]bool

	lib    *stack      // mine_scale deployment
	dep    *httpDeploy // HTTP deployments
	shadow *stack      // traced HTTP runs: the layers, fed the same inputs
	tr     *tracer

	explainBodies [][]byte
	appendBodies  [][]byte
	shed          atomic.Int64 // 429 replies
	respMu        sync.Mutex
	respBytes     []float64     // traced runs: explain reply sizes
	stats         explain.Stats // summed over probed explains
	probed        int
	probeSeq      int // makes each computed coordinator probe a request no cache has seen
	mineResult    *mining.Result
	mineWall      time.Duration
}

func runChild(cfg runConfig) (*runResult, error) {
	runtime.GOMAXPROCS(procs)
	spec := findWorkload(cfg.Workload)
	if spec == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	r := &run{cfg: cfg, spec: spec, sz: spec.sized(cfg.Seconds, cfg.Tiny)}
	r.res = &runResult{Config: cfg, Sizes: r.sz, Hashes: map[string]string{}, PhaseS: map[string]float64{}, Metrics: map[string]metric{}}
	if cfg.Trace {
		r.tr = newTracer()
	}
	if r.sz.Shards > 1 {
		r.admitted = map[int]map[string]bool{}
	}
	if err := os.MkdirAll(cfg.Workdir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.Workdir)

	if err := r.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer r.close()
	r.res.SetupS = float64(time.Now().UnixNano()-cfg.SpawnedNs) / 1e9

	if err := r.timed("mine", r.mine); err != nil {
		return nil, fmt.Errorf("mine: %w", err)
	}
	if cfg.SetupOnly {
		return r.res, nil
	}
	if err := r.timed("prepare", r.prepare); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	if cfg.Trace {
		return r.res, r.tracedPhases()
	}
	return r.res, r.measuredPhase()
}

// timed runs one lifecycle phase and records its wall time.
func (r *run) timed(phase string, f func() error) error {
	t0 := time.Now()
	err := f()
	r.res.PhaseS[phase] += time.Since(t0).Seconds()
	return err
}

// ---- setup ----

func (r *run) setup() error {
	var fsys *countingFS
	if r.cfg.Trace {
		fsys = newCountingFS()
	}
	keyed := r.sz.Shards > 1
	extra := tailRows(r.sz.Appends+2, r.sz.AppendRows, keyed)
	ih := newInputHasher()
	hashed := func(sink func([]value.Tuple) error) func([]value.Tuple) error {
		return func(b []value.Tuple) error { ih.rows(b); return sink(b) }
	}
	var base engine.Relation
	var tail []value.Tuple
	var err error
	if r.sz.Shards == 0 {
		rel, sink := segSink(r.sz.SegRows)
		if tail, err = streamTable(r.cfg.Seed, r.sz.Rows, extra, hashed(sink)); err != nil {
			return err
		}
		if err := rel.Compact(); err != nil {
			return err
		}
		lib, err := bootstrapStack(r.dataDirs()[0], rel, store.Options{FlushEvery: r.sz.FlushRows, Backing: segBacking}, fsys)
		if err != nil {
			return err
		}
		r.lib, base = lib, rel
	} else {
		tab := engine.NewTable(crimeSchema())
		if tail, err = streamTable(r.cfg.Seed, r.sz.Rows, extra, hashed(tab.AppendRows)); err != nil {
			return err
		}
		var csv bytes.Buffer
		if err := tab.WriteCSV(&csv); err != nil {
			return err
		}
		dep, err := newHTTPDeploy(r.cfg.Workdir, r.sz.Shards, r.sz.FlushRows, csv.Bytes())
		if err != nil {
			return err
		}
		r.dep, base = dep, tab
		if r.cfg.Trace {
			sh, err := bootstrapStack(filepath.Join(r.cfg.Workdir, "shadow", tableName), tab,
				store.Options{FlushEvery: r.sz.FlushRows}, fsys)
			if err != nil {
				return err
			}
			sh.explainWorkers = procs
			if keyed {
				sh.keep = keyInF
			}
			r.shadow = sh
		}
	}
	r.res.Hashes["table"] = ih.sum()

	if r.qs, err = questionPool(base, r.spec.shapes, r.sz.Pool+probeQuestions, r.cfg.Seed); err != nil {
		return err
	}
	if r.sz.ZipfS > 0 {
		r.picks = zipfPicks(r.sz.Explains, r.sz.Pool, r.sz.ZipfS)
	} else {
		r.picks = make([]int, r.sz.Explains)
		for i := range r.picks {
			r.picks[i] = i
		}
	}
	r.res.Hashes["questions"] = hashQuestions(r.qs, r.picks)
	if r.batches, err = appendBatches(r.cfg.Seed, tail, r.sz.Appends+2, r.sz.AppendRows, keyed); err != nil {
		return err
	}
	r.res.Hashes["appends"] = hashBatches(r.batches)
	return nil
}

func (r *run) close() {
	if r.lib != nil {
		r.lib.close()
	}
	if r.dep != nil {
		r.dep.close()
	}
	if r.shadow != nil {
		r.shadow.close()
	}
}

// ---- mine ----

// mine runs the workload's mining job: the one that creates the pattern
// set the rest of the run uses. The library workload repeats it (it has
// no side effects there); a server keeps every mined set and maintains
// it on every append, so the HTTP workloads mine once per process.
func (r *run) mine() error {
	if r.lib != nil {
		n := mineRepeats
		if r.cfg.SetupOnly || r.cfg.Trace || r.cfg.Tiny {
			n = 1
		}
		for i := 0; i < n; i++ {
			res, d, err := r.lib.mine()
			if err != nil {
				return err
			}
			r.res.MineS = append(r.res.MineS, d.Seconds())
			r.mineResult, r.mineWall, r.res.Patterns = res, d, len(res.Patterns)
		}
		return nil
	}
	n, d, err := r.dep.mine()
	if err != nil {
		return err
	}
	r.res.MineS, r.res.Patterns = []float64{d.Seconds()}, n
	if r.shadow != nil {
		if r.mineResult, r.mineWall, err = r.shadow.mine(); err != nil {
			return err
		}
	}
	return nil
}

// ---- prepare ----

// prepare is untimed: build the Maintainer (a server builds it on the
// first append, so batch 0 is appended here), render request bodies,
// and warm connections and the Explainer with probe-only questions.
func (r *run) prepare() error {
	if r.lib != nil {
		if err := r.lib.prepare(); err != nil {
			return err
		}
	} else {
		r.explainBodies = make([][]byte, len(r.qs))
		for i, q := range r.qs {
			r.explainBodies[i] = explainBody(r.dep.psID, q)
		}
		r.appendBodies = make([][]byte, len(r.batches))
		for i, b := range r.batches {
			r.appendBodies[i] = appendBody(b)
		}
		if r.shadow != nil {
			if err := r.shadow.prepare(); err != nil {
				return err
			}
		}
	}
	if err := r.append(0, nil); err != nil {
		return err
	}
	if r.shadow != nil {
		if err := r.shadowAppend(0, nil); err != nil {
			return err
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := r.explain(r.sz.Pool+probeQuestions-1-i, nil); err != nil {
			return err
		}
	}
	return nil
}

// ---- the target both front doors implement ----

func (r *run) explain(q int, parent *span) ([]byte, error) {
	if r.lib != nil {
		uq, expls, stats, err := r.lib.explain(r.qs[q], parent)
		if err != nil {
			return nil, err
		}
		if r.tr != nil && parent != nil {
			r.addStats(stats)
		}
		return renderAnswer(uq, expls)
	}
	status, body, _, err := r.dep.do(http.MethodPost, r.dep.front+"/v1/explain", "application/json", r.explainBodies[q])
	if err != nil {
		return nil, err
	}
	if status == http.StatusTooManyRequests {
		r.shed.Add(1)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("explain question %d: status %d: %s", q, status, body)
	}
	if parent != nil {
		r.respMu.Lock()
		r.respBytes = append(r.respBytes, float64(len(body)))
		r.respMu.Unlock()
	}
	return body, nil
}

func (r *run) append(b int, parent *span) error {
	if r.lib != nil {
		return r.lib.append(r.batches[b], parent)
	}
	status, body, _, err := r.dep.do(http.MethodPost, r.dep.front+"/v1/append", "application/json", r.appendBodies[b])
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("append batch %d: status %d: %s", b, status, body)
	}
	return nil
}

func (r *run) shadowAppend(b int, parent *span) error {
	return r.shadow.append(r.batches[b], parent)
}

func (r *run) addStats(s *explain.Stats) {
	r.stats.RelevantPatterns += s.RelevantPatterns
	r.stats.RefinementPairs += s.RefinementPairs
	r.stats.Candidates += s.Candidates
	r.stats.PrunedRefinements += s.PrunedRefinements
	r.probed++
}

// ---- the untraced, measured run ----

func (r *run) measuredPhase() error {
	resetPeakRSS()
	ph := runPhase(r, phasePlan{picks: r.picks, firstBatch: 1, appends: r.sz.Appends, clients: r.sz.Clients, atCheckpoint: r.checkpointHook()})
	r.res.PhaseS["request"] = ph.usage.wall.Seconds()
	rss := peakRSSMB()
	rows, diskBytes, err := r.diskState()
	if err != nil {
		return err
	}
	var wrong int
	err = r.timed("verify", func() (err error) {
		wrong, err = r.verify(ph.kept, 1+r.sz.Appends)
		return err
	})
	if err != nil {
		return err
	}
	attempted, bad := r.conclude(wrong, ph)

	m := r.res.Metrics
	ex := sortedCopy(ph.explainMs)
	tail := pickTail(len(ex))
	m["explain_p50_ms"] = metric{percentile(ex, 0.5), "ms", len(ex), "p50"}
	m["explain_tail_ms"] = metric{percentile(ex, tail), "ms", len(ex), fmt.Sprintf("p%.0f", tail*100)}
	ap := sortedCopy(ph.appendMs)
	m["append_p50_ms"] = metric{percentile(ap, 0.5), "ms", len(ap), "p50"}
	m["goodput_per_s"] = metric{ph.goodput(), "1/s", ph.ops(), "ops/wall"}
	m["peak_rss_mb"] = metric{rss, "MB", 1, "VmHWM"}
	m["disk_bytes_per_row"] = metric{float64(diskBytes) / float64(rows), "B/row", rows, "bytes/rows"}
	m["ok_ratio"] = metric{float64(attempted-bad) / float64(attempted), "ratio", attempted, "ok/attempted"}
	return nil
}

// checkpointHook records, in a sharded run, which pattern keys the
// coordinator serves at each checkpoint; nil otherwise.
func (r *run) checkpointHook() func(applied int) {
	if r.admitted == nil {
		return nil
	}
	return func(applied int) {
		_, body, _, err := r.dep.do(http.MethodGet, r.dep.front+"/v1/patterns/"+r.dep.psID, "", nil)
		var out struct {
			Patterns []struct {
				Key string `json:"key"`
			} `json:"patterns"`
		}
		if err == nil {
			err = json.Unmarshal(body, &out)
		}
		if err != nil {
			r.note("GET /v1/patterns after %d batches: %v", applied, err)
			return
		}
		keys := make(map[string]bool, len(out.Patterns))
		for _, p := range out.Patterns {
			keys[p.Key] = true
		}
		r.admitted[applied] = keys
	}
}

// conclude sets the run's verdict: the ops attempted, and how many of
// them failed in a phase or were found wrong by the verification.
func (r *run) conclude(wrong int, phases ...*phaseResult) (attempted, bad int) {
	attempted, bad = len(r.picks)+r.sz.Appends, wrong
	for _, ph := range phases {
		bad += ph.failed
		if ph.firstErr != nil {
			r.note("first failed op: %v", ph.firstErr)
		}
	}
	bad = min(bad, attempted)
	r.res.Attempted, r.res.Failed, r.res.Correct = attempted, bad, bad == 0
	return attempted, bad
}

func (r *run) note(format string, args ...interface{}) {
	r.res.Notes = append(r.res.Notes, fmt.Sprintf(format, args...))
}

// diskState returns the rows the deployment holds and the bytes under
// its data directories (WAL + segments + manifest).
func (r *run) diskState() (rows int, bytes int64, err error) {
	for _, dir := range r.dataDirs() {
		err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err == nil {
				bytes += info.Size()
			}
			return err
		})
		if err != nil {
			return 0, 0, err
		}
	}
	if r.lib != nil {
		return r.lib.st.Info().Rows, bytes, nil
	}
	for _, u := range r.dep.shardURLs {
		_, ts, err := r.dep.status(u, "")
		if err != nil {
			return 0, 0, err
		}
		rows += ts.Rows
	}
	return rows, bytes, nil
}

func (r *run) dataDirs() []string {
	if r.sz.Shards == 0 {
		return []string{filepath.Join(r.cfg.Workdir, "data-0", tableName)}
	}
	return r.dep.dataDirs
}

// resetPeakRSS restarts the kernel's high-water mark of resident memory
// (Linux: "5" into clear_refs), so peak_rss_mb is the peak of the
// request phase — dozens of GC cycles, whose maximum repeats — and not
// of the one allocation burst in which the table was loaded, which
// lands 25 % higher or lower with the timing of a single GC cycle. Where
// the kernel refuses, the mark keeps covering the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// ---- verify ----

// verify checks the run's outputs after the measurements are taken:
// kept answers against the oracle, the library workload's mined set
// against CubeMine over the same segments, and a recovery of every data
// directory against what was acknowledged. It returns how many ops it
// found wrong.
func (r *run) verify(kept []keptAnswer, applied int) (wrong int, err error) {
	if want := checkpoints * holdExplains; len(kept) < want && !r.cfg.Tiny {
		r.note("oracle sample is %d answers, want %d", len(kept), want)
		wrong++
	}
	o, err := newOracle(r.cfg.Seed, r.sz.Rows, r.batches, r.qs, r.admitted)
	if err != nil {
		return 0, err
	}
	bad, diff, err := o.check(kept)
	if err != nil {
		return 0, fmt.Errorf("oracle: %w", err)
	}
	r.res.Notes = append(r.res.Notes, o.notes...)
	if bad > 0 {
		r.note("%d of %d sampled answers differ from the oracle; first: %s", bad, len(kept), diff)
	}
	wrong += bad

	if r.lib != nil {
		bad, err := r.verifyMiners()
		if err != nil {
			return 0, err
		}
		wrong += bad
	}

	bad, err = r.verifyRecovery(applied)
	return wrong + bad, err
}

// verifyMiners re-mines the library workload's final table cold, over
// the same segments: the maintained set must equal ARPMine's byte for
// byte, and CubeMine's — a different algorithm over the same fragments,
// whose float folds may differ in the last bits — to 1e-9.
func (r *run) verifyMiners() (wrong int, err error) {
	render := func(ps []*pattern.Mined) ([]byte, error) {
		var b bytes.Buffer
		err := pattern.WriteJSON(&b, ps)
		return b.Bytes(), err
	}
	got, err := render(r.lib.pats)
	if err != nil {
		return 0, err
	}
	for _, miner := range []struct {
		name  string
		run   func(engine.Relation, mining.Options) (*mining.Result, error)
		exact bool
	}{{"ARPMine", mining.ARPMine, true}, {"CubeMine", mining.CubeMine, false}} {
		res, err := miner.run(r.lib.rel, r.lib.opt)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", miner.name, err)
		}
		want, err := render(res.Patterns)
		if err != nil {
			return 0, err
		}
		switch {
		case bytes.Equal(got, want):
		case miner.exact || !jsonClose(got, want, 1e-9):
			r.note("maintained pattern set differs from cold %s over the same segments", miner.name)
			wrong++
		default:
			r.note("cold %s over the same segments equals the maintained set only to 1e-9, not byte for byte", miner.name)
		}
	}
	return wrong, nil
}

// verifyRecovery opens every data directory read-only, as a restart
// would (sealed segments + WAL replay), and compares rows and epoch
// with what the live deployment acknowledged.
func (r *run) verifyRecovery(applied int) (wrong int, err error) {
	wantRows := r.sz.Rows
	for _, b := range r.batches[:applied] {
		wantRows += len(b)
	}
	gotRows := 0
	for i, dir := range r.dataDirs() {
		opt := store.Options{ReadOnly: true}
		var live store.Info
		if r.lib != nil {
			opt.Backing = segBacking
			live = r.lib.st.Info()
		} else {
			_, ts, err := r.dep.status(r.dep.shardURLs[i], "")
			if err != nil {
				return 0, err
			}
			live.Rows, live.Epoch = ts.Rows, ts.Epoch
		}
		t0 := time.Now()
		st, err := store.Open(dir, opt)
		if err != nil {
			r.note("recovery of %s failed: %v", dir, err)
			wrong += r.sz.Appends
			continue
		}
		info := st.Info()
		r.recovered(time.Since(t0), info)
		if c, ok := st.Table().(interface{ Close() error }); ok {
			c.Close()
		}
		gotRows += info.Rows
		if info.Rows != live.Rows || info.Epoch != live.Epoch {
			r.note("recovery of %s holds rows=%d epoch=%d, live deployment acknowledged rows=%d epoch=%d",
				dir, info.Rows, info.Epoch, live.Rows, live.Epoch)
			wrong += r.sz.Appends
		}
	}
	if gotRows != wantRows {
		r.note("recovered %d rows, the acknowledged batches make %d", gotRows, wantRows)
		wrong += r.sz.Appends
	}
	return wrong, nil
}

// recovered records one store recovery for the traced run's metrics.
func (r *run) recovered(d time.Duration, info store.Info) {
	if r.tr == nil {
		return
	}
	m := r.res.Metrics
	prev := m["store.reopen_ms"]
	m["store.reopen_ms"] = metric{prev.Value + float64(d)/1e6, "ms", prev.N + 1, "sum over stores"}
	prevB := m["store.replayed_batches"]
	m["store.replayed_batches"] = metric{prevB.Value + float64(info.Replayed), "count", prevB.N + 1, "sum over stores"}
}

// healthzFloor is the median GET /healthz round trip: the floor under
// any HTTP latency this harness can observe.
func (r *run) healthzFloor() ([]float64, error) {
	url := ""
	if r.dep != nil {
		url = r.dep.front
	} else {
		ts := httptest.NewServer(server.New())
		defer ts.Close()
		url = ts.URL
	}
	client := http.DefaultClient
	if r.dep != nil {
		client = r.dep.client
	}
	var out []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		resp, err := client.Get(url + "/healthz")
		if err != nil {
			return nil, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		out = append(out, float64(time.Since(t0))/1e3)
	}
	return out, nil
}
