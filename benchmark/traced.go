package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"cape/internal/engine"
	"cape/internal/explain"
	"cape/internal/server"
	"cape/internal/value"
)

// coldEvery is how often a probed explain also runs on a fresh
// Explainer (every group-by cold): it costs several warm explains.
const coldEvery = 8

// layers returns the library stack the probes call into: the deployment
// itself in the library workload, the shadow in the HTTP ones.
func (r *run) layers() *stack {
	if r.lib != nil {
		return r.lib
	}
	return r.shadow
}

// tracedPhases is the traced run: two half-length request phases over
// the two halves of the op sequence. The first runs as in an untraced
// run and gives the counters that probes would disturb (cache hit
// ratios, CPU and allocations per op) and the base of the overhead
// ratio; in the second every op is a span and the appending client
// replays its ops' inputs against the layers.
func (r *run) tracedPhases() error {
	s := r.layers()
	halfE, halfA := len(r.picks)/2, r.sz.Appends/2

	front0 := r.frontCounters()
	u := runPhase(r, phasePlan{picks: r.picks[:halfE], firstBatch: 1, appends: halfA, clients: r.sz.Clients, atCheckpoint: r.checkpointHook()})
	front1 := r.frontCounters()
	if r.shadow != nil {
		for b := 1; b <= halfA; b++ {
			if err := r.shadowAppend(b, nil); err != nil {
				return err
			}
		}
	}
	s.tr = r.tr

	ix := explain.NewIndex(s.pats)
	fs0 := s.fs.snapshot()
	probes := 0
	t := runPhase(r, phasePlan{
		picks: r.picks[halfE:], firstBatch: 1 + halfA, appends: r.sz.Appends - halfA, clients: r.sz.Clients, tr: r.tr,
		atCheckpoint: r.checkpointHook(),
		afterExplain: func(q int, op *span) {
			probes++
			if err := r.probeExplain(q, op, ix, probes%coldEvery == 1); err != nil {
				r.note("probe of question %d: %v", q, err)
			}
		},
		afterAppend: func(b int, op *span) {
			if r.shadow != nil {
				if err := r.shadowAppend(b, op); err != nil {
					r.note("shadow append %d: %v", b, err)
				}
			}
			ix = explain.NewIndex(s.pats)
		},
	})
	fsT := s.fs.snapshot().minus(fs0)
	r.res.PhaseS["request"] = (u.usage.wall + t.usage.wall).Seconds()
	applied := 1 + r.sz.Appends

	// Quiescent probes: nothing else is in flight from here on.
	batchMs, err := r.probeBatch16()
	if err != nil {
		return err
	}
	r.putMedian("explain.batch16_ms_per_q", batchMs, "ms")
	if r.sz.Shards > 1 {
		share, n, err := r.probeInvalidation(applied)
		if err != nil {
			return err
		}
		applied++
		r.put("coord.invalidated_share", share, "ratio", n, "re-missed/cached")
	}
	floor, err := r.healthzFloor()
	if err != nil {
		return err
	}
	r.putMedian("harness.client_floor_us", floor, "us")
	var openMs []float64
	for _, dir := range r.dataDirs() {
		segs, _ := filepath.Glob(filepath.Join(dir, "*.capeseg"))
		for _, p := range segs {
			t0 := time.Now()
			seg, err := engine.OpenSegment(p)
			if err != nil {
				return err
			}
			openMs = append(openMs, float64(time.Since(t0))/1e6)
			seg.Close()
		}
	}
	r.putMedian("engine.segment_open_ms", openMs, "ms")

	kept := append(u.kept, t.kept...)
	wrong, err := r.verify(kept, applied)
	if err != nil {
		return err
	}
	r.conclude(wrong, u, t)
	// The explicit flush comes after the recovery check, which should
	// find the WAL as the request phase left it.
	sp := r.tr.start(spanStoreFlush, nil, false)
	err = s.st.Flush()
	sp.end()
	if err != nil {
		return err
	}

	// engine
	gb := r.tr.durationsMs(spanGroupBy)
	r.putMedian("engine.groupby_ms", gb, "ms")
	if med := median(gb); med > 0 {
		r.put("engine.groupby_rows_per_s", float64(s.rel.NumRows())/(med/1e3), "1/s", len(gb), "rows/median")
	}
	// mining
	tm := r.mineResult.Timers
	r.put("mining.query_s", tm.Query.Seconds(), "s", 1, "timer")
	r.put("mining.regression_s", tm.Regression.Seconds(), "s", 1, "timer")
	// The miners leave Timers.Other empty: the Figure-4 "other" bucket is
	// the job's wall time outside its two timed subtasks.
	r.put("mining.other_s", (r.mineWall - tm.Query - tm.Regression).Seconds(), "s", 1, "wall-query-regression")
	r.put("mining.candidates", float64(r.mineResult.Candidates), "count", 1, "count")
	r.put("mining.patterns", float64(len(r.mineResult.Patterns)), "count", 1, "count")
	r.put("mining.maintainer_build_s", s.maintainerBuild.Seconds(), "s", 1, "single")
	r.putMedian("mining.maintainer_apply_ms", r.tr.durationsMs(spanMaintainApply), "ms")
	// explain
	r.putMedian("explain.index_build_ms", r.tr.durationsMs(spanIndexBuild), "ms")
	rel := r.tr.durationsMs(spanIndexRelevant)
	for i := range rel {
		rel[i] *= 1e3
	}
	r.putMedian("explain.index_relevant_us", rel, "us")
	r.putMedian("explain.generate_ms", r.tr.durationsMs(spanGenerate), "ms")
	r.putMedian("explain.generate_cold_ms", r.tr.durationsMs(spanGenerateCold), "ms")
	r.put("explain.relevant_patterns", float64(r.stats.RelevantPatterns), "count", r.probed, "sum")
	r.put("explain.refinement_pairs", float64(r.stats.RefinementPairs), "count", r.probed, "sum")
	r.put("explain.candidates", float64(r.stats.Candidates), "count", r.probed, "sum")
	if r.stats.RefinementPairs > 0 {
		r.put("explain.pruned_share", float64(r.stats.PrunedRefinements)/float64(r.stats.RefinementPairs), "ratio", r.probed, "pruned/pairs")
	}
	r.put("explain.cached_groupings", float64(s.ex.CachedGroupings()), "count", 1, "count")
	// store
	sa := r.tr.durationsMs(spanStoreAppend)
	r.putMedian("store.append_ms", sa, "ms")
	r.putMedian("store.flush_ms", r.tr.durationsMs(spanStoreFlush), "ms")
	var rowsT, userBytes int64
	for _, b := range r.batches[1+halfA : 1+r.sz.Appends] {
		rowsT += int64(len(b))
		for _, row := range b {
			for _, v := range row {
				userBytes += int64(len(v.String())) + 1
			}
		}
	}
	nApp := len(sa)
	if nApp > 0 {
		r.put("store.append_max_ms", slices.Max(sa), "ms", nApp, "max")
		r.put("store.fsyncs_per_append", float64(fsT.syncs+fsT.dirSyncs)/float64(nApp), "count", nApp, "syncs/appends")
		r.put("store.wal_bytes_per_row", float64(fsT.walBytes)/float64(rowsT), "B/row", int(rowsT), "bytes/rows")
		r.put("store.bytes_written_per_user_byte", float64(fsT.walBytes+fsT.fileBytes)/float64(userBytes), "ratio", int(userBytes), "written/user")
	}
	r.put("store.flushes", float64(fsT.segments), "count", nApp, "count")
	// harness (from the phase no probe disturbed)
	ops := float64(u.ops())
	r.put("harness.cpu_s_per_op", u.usage.cpuSeconds/ops, "s", int(ops), "rusage/ops")
	r.put("harness.alloc_bytes_per_op", float64(u.usage.allocBytes)/ops, "B", int(ops), "alloc/ops")
	r.put("harness.gc_pause_total_ms", u.usage.gcPauseMs, "ms", int(ops), "sum over the phase")
	r.put("harness.gc_cycles", float64(u.usage.gcCycles), "count", 1, "count")
	r.put("harness.trace_overhead_ratio", t.goodput()/u.goodput(), "ratio", t.ops(), "traced/untraced goodput")

	if r.dep != nil {
		r.frontMetrics(front0, front1)
	}
	if r.cfg.TraceFile != "" {
		return r.tr.writeFile(r.cfg.TraceFile, newHeader(r.cfg.Seconds, r.cfg.Tiny), r.res)
	}
	return nil
}

// put records one metric of the traced run.
func (r *run) put(name string, v float64, unit string, n int, stat string) {
	r.res.Metrics[name] = metric{v, unit, n, stat}
}

// putMedian records the median of a metric's samples.
func (r *run) putMedian(name string, xs []float64, unit string) {
	r.put(name, median(xs), unit, len(xs), "median")
}

// probeExplain replays one answered question against the layers.
func (r *run) probeExplain(q int, op *span, ix *explain.Index, cold bool) error {
	s := r.layers()
	qu := r.qs[q]
	if r.shadow != nil {
		_, _, stats, err := s.explain(qu, op)
		if err != nil {
			return err
		}
		r.addStats(stats)
	}
	sp := r.tr.start(spanIndexRelevant, op, false)
	ix.Relevant(qu.GroupBy, countAgg)
	sp.end()
	if cold {
		uq, err := resolve(s.rel, qu)
		if err != nil {
			return err
		}
		sp := r.tr.start(spanGenerateCold, op, false)
		_, _, err = explain.NewExplainer(s.rel, s.pats, explain.Options{K: explainK, Parallelism: s.explainWorkers}).Explain(uq)
		sp.end()
		if err != nil {
			return err
		}
	}
	if r.sz.Shards > 1 {
		return r.probeCoordinator(q, op)
	}
	return nil
}

// probeCoordinator times the three paths of a sharded explain for one
// question: a certain hit (the question was just answered and nothing
// was appended since), a certain miss, and the same computation asked
// of the owning shard directly. The two computed ones carry a weight
// for an attribute no question has — a new value every time, so no
// cache on either tier has seen the request, and the work and the
// answer are those of the question itself.
func (r *run) probeCoordinator(q int, op *span) error {
	qu := r.qs[q]
	post := func(name, url string, body []byte) error {
		sp := r.tr.start(name, op, false)
		status, out, _, err := r.dep.do(http.MethodPost, url+"/v1/explain", "application/json", body)
		sp.end()
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %s", name, status, out)
		}
		return err
	}
	unseen := func(psID string) []byte {
		r.probeSeq++
		b, _ := json.Marshal(server.ExplainRequest{
			Patterns: psID, GroupBy: qu.GroupBy, Tuple: qu.tupleStrings(), Dir: qu.Dir.String(), K: explainK,
			Weights: map[string]float64{"probe": float64(r.probeSeq)},
		})
		return b
	}
	if err := post(spanCoordHit, r.dep.front, r.explainBodies[q]); err != nil {
		return err
	}
	if err := post(spanCoordMiss, r.dep.front, unseen(r.dep.psID)); err != nil {
		return err
	}
	var key value.Tuple
	for i, g := range qu.GroupBy {
		if g == shardKey {
			key = value.Tuple{qu.Values[i]}
		}
	}
	owner := engine.Partitioner{Key: []string{shardKey}, N: r.sz.Shards}.ShardOf(key)
	return post(spanShardDirect, r.dep.shardURLs[owner], unseen(r.dep.shardPS[owner]))
}

// probeBatch16 asks five batches of 16 never-asked questions and
// returns milliseconds per question.
func (r *run) probeBatch16() ([]float64, error) {
	var out []float64
	for b := 0; b < 5; b++ {
		first := r.sz.Pool + b*16
		t0 := time.Now()
		if r.lib != nil {
			uqs := make([]explain.UserQuestion, 16)
			for i := range uqs {
				uq, err := resolve(r.lib.rel, r.qs[first+i])
				if err != nil {
					return nil, err
				}
				uqs[i] = uq
			}
			for _, it := range r.lib.ex.ExplainBatch(uqs) {
				if it.Err != nil {
					return nil, it.Err
				}
			}
		} else {
			req := server.ExplainBatchRequest{Patterns: r.dep.psID, K: explainK}
			for _, q := range r.qs[first : first+16] {
				req.Questions = append(req.Questions, server.QuestionSpec{GroupBy: q.GroupBy, Tuple: q.tupleStrings(), Dir: q.Dir.String()})
			}
			status, body, _, err := r.dep.postJSON(r.dep.front+"/v1/explain/batch", req)
			if err != nil {
				return nil, err
			}
			if status != http.StatusOK || !strings.Contains(string(body), `"failed": 0`) {
				return nil, fmt.Errorf("explain batch: status %d: %.200s", status, body)
			}
		}
		out = append(out, float64(time.Since(t0))/1e6/16)
	}
	return out, nil
}

// probeInvalidation measures what one single-shard append costs the
// coordinator's cache: cache 64 questions, append the spare batch (one
// community, so one shard), ask them again, and count the new misses.
func (r *run) probeInvalidation(batch int) (share float64, n int, err error) {
	qs := make([]int, 64)
	for i := range qs {
		qs[i] = r.sz.Pool + i
	}
	ask := func() error {
		for _, q := range qs {
			if _, err := r.explain(q, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := ask(); err != nil {
		return 0, 0, err
	}
	c0 := r.frontCounters()
	if err := r.append(batch, nil); err != nil {
		return 0, 0, err
	}
	if err := r.shadowAppend(batch, nil); err != nil {
		return 0, 0, err
	}
	if err := ask(); err != nil {
		return 0, 0, err
	}
	c1 := r.frontCounters()
	return float64(c1.Misses-c0.Misses) / float64(len(qs)), len(qs), nil
}

// frontCounters reads the front door's answer-cache counters; zero for
// the library workload or when the status call fails.
func (r *run) frontCounters() cacheCounters {
	if r.dep == nil {
		return cacheCounters{}
	}
	cc, _, err := r.dep.status(r.dep.front, r.dep.psID)
	if err != nil {
		r.note("GET /v1: %v", err)
	}
	return cc
}

// frontMetrics are the HTTP tiers' own metrics: reported, but not part
// of BENCHMARK.json's per-layer list, which holds only metrics every
// workload can measure.
func (r *run) frontMetrics(c0, c1 cacheCounters) {
	layer := "server"
	if r.sz.Shards > 1 {
		layer = "coord"
	}
	hits, misses := float64(c1.Hits-c0.Hits), float64(c1.Misses-c0.Misses)
	if hits+misses > 0 {
		r.put(layer+".anscache_hit_ratio", hits/(hits+misses), "ratio", int(hits+misses), "hits/lookups")
	}
	r.put(layer+".anscache_evictions", float64(c1.Evictions-c0.Evictions), "count", 1, "count")
	r.putMedian("server.explain_http_ms", r.tr.durationsMs(spanOpExplain), "ms")
	r.putMedian("server.append_http_ms", r.tr.durationsMs(spanOpAppend), "ms")
	if r.sz.Shards == 1 {
		r.putMedian("server.overhead_ms", r.tr.selfMs(spanOpExplain), "ms")
	}
	r.putMedian("server.append_overhead_ms", r.tr.selfMs(spanOpAppend), "ms")
	r.put("server.mine_overhead_s", r.res.MineS[0]-r.mineWall.Seconds(), "s", 1, "http-direct")
	r.putMedian("server.resp_bytes_p50", r.respBytes, "B")
	if r.sz.Shards > 1 {
		hit, miss, direct := r.tr.durationsMs(spanCoordHit), r.tr.durationsMs(spanCoordMiss), r.tr.durationsMs(spanShardDirect)
		r.putMedian("coord.hit_http_ms", hit, "ms")
		r.putMedian("coord.miss_http_ms", miss, "ms")
		over := make([]float64, 0, len(miss))
		for i := range miss {
			if i < len(direct) {
				over = append(over, miss[i]-direct[i])
			}
		}
		r.putMedian("coord.fanout_overhead_ms", over, "ms")
		r.put("coord.shed", float64(r.shed.Load()), "count", len(r.picks), "count")
	}
}
