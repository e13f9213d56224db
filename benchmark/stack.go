package main

import (
	"fmt"
	"time"

	"cape/internal/engine"
	"cape/internal/explain"
	"cape/internal/mining"
	"cape/internal/pattern"
	"cape/internal/store"
	"cape/internal/value"
)

// stack is the library composition of the layers — a durable store, its
// relation, a Maintainer keeping the pattern set fresh, and a warm
// Explainer — driven through their exported functions only. It is the
// deployment of the mine_scale workload, and in traced runs of the HTTP
// workloads the shadow the harness replays each op's input against, so
// both get their layer spans from the same calls.
type stack struct {
	st  *store.Store
	rel engine.MutableRelation
	opt mining.Options
	// keep filters the served patterns (the sharded shadow keeps only
	// patterns with the shard key in F, as the coordinator admits).
	keep func(*pattern.Mined) bool
	// explainWorkers is the Explainer's parallelism: 1 in the library
	// workload so every explain counter repeats exactly.
	explainWorkers int

	mt   *mining.Maintainer
	pats []*pattern.Mined
	ex   *explain.Explainer

	tr *tracer
	fs *countingFS // non-nil in traced runs

	maintainerBuild time.Duration
}

// segSink returns an empty SegTable and the function that streams rows
// into it, sealing a compressed segment every segRows rows; the caller
// seals the last, partial one with Compact once the stream ends.
func segSink(segRows int) (rel *engine.SegTable, sink func([]value.Tuple) error) {
	rel = engine.NewSegTable(crimeSchema())
	return rel, func(batch []value.Tuple) error {
		if err := rel.AppendRows(batch); err != nil {
			return err
		}
		if rel.TailRows() >= segRows {
			return rel.Compact()
		}
		return nil
	}
}

// segBacking makes a store keep its table as a SegTable.
func segBacking(s engine.Schema) engine.MutableRelation { return engine.NewSegTable(s) }

// bootstrapStack seals rel into a new store (fsync always) and wraps it.
func bootstrapStack(dir string, rel engine.MutableRelation, opt store.Options, fs *countingFS) (*stack, error) {
	opt.Sync = store.SyncAlways
	if fs != nil {
		opt.FS = fs
	}
	st, err := store.Bootstrap(dir, tableName, rel, opt)
	if err != nil {
		return nil, err
	}
	return &stack{st: st, rel: rel, opt: mineOptions(), explainWorkers: 1, fs: fs}, nil
}

func (s *stack) served(ps []*pattern.Mined) []*pattern.Mined {
	if s.keep == nil {
		return ps
	}
	out := ps[:0:0]
	for _, m := range ps {
		if s.keep(m) {
			out = append(out, m)
		}
	}
	return out
}

// mine runs the mining job and installs its patterns.
func (s *stack) mine() (*mining.Result, time.Duration, error) {
	t0 := time.Now()
	res, err := mining.ARPMine(s.rel, s.opt)
	d := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	s.pats = s.served(res.Patterns)
	return res, d, nil
}

// prepare builds what the request phase needs warm: the Maintainer
// (whose initial fit equals the mined set) and the Explainer.
func (s *stack) prepare() error {
	t0 := time.Now()
	mt, err := mining.NewMaintainer(s.rel, s.opt)
	if err != nil {
		return err
	}
	s.maintainerBuild = time.Since(t0)
	s.mt = mt
	s.pats = s.served(mt.Patterns())
	s.ex = explain.NewExplainer(s.rel, s.pats, explain.Options{K: explainK, Parallelism: s.explainWorkers})
	return nil
}

// resolve is the analyst's path to a question: run its aggregate query
// and read the tuple's current value out of the result.
func resolve(rel engine.Relation, q question) (explain.UserQuestion, error) {
	grouped, err := rel.GroupBy(q.GroupBy, []engine.AggSpec{countAgg})
	if err != nil {
		return explain.UserQuestion{}, err
	}
	for _, row := range grouped.Rows() {
		if row[:len(q.GroupBy)].Equal(q.Values) {
			return explain.QuestionFromRow(q.GroupBy, countAgg, row, q.Dir)
		}
	}
	return explain.UserQuestion{}, fmt.Errorf("tuple %v is not a result of the question query", q.Values)
}

// explain answers one question: resolve it, then generate.
func (s *stack) explain(q question, parent *span) (explain.UserQuestion, []explain.Explanation, *explain.Stats, error) {
	sp := s.tr.start(spanGroupBy, parent, false)
	uq, err := resolve(s.rel, q)
	sp.end()
	if err != nil {
		return uq, nil, nil, err
	}
	sp = s.tr.start(spanGenerate, parent, true)
	expls, stats, err := s.ex.Explain(uq)
	sp.end()
	return uq, expls, stats, err
}

// append is one acked append as the server composes it: WAL + fsync +
// apply, fold into the pattern set, swap the set (and its relevance
// index) into the warm Explainer.
func (s *stack) append(rows []value.Tuple, parent *span) error {
	sp := s.tr.start(spanStoreAppend, parent, true)
	_, err := s.st.Append(rows)
	sp.end()
	if err != nil {
		return err
	}
	sp = s.tr.start(spanMaintainApply, parent, true)
	err = s.mt.CatchUp()
	sp.end()
	if err != nil {
		return err
	}
	s.pats = s.served(s.mt.Patterns())
	sp = s.tr.start(spanIndexBuild, parent, true)
	s.ex.SetPatterns(s.pats)
	sp.end()
	return nil
}

func (s *stack) close() error { return s.st.Close() }
