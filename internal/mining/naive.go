package mining

import (
	"fmt"
	"time"

	"cape/internal/engine"
	"cape/internal/pattern"
	"cape/internal/regress"
	"cape/internal/value"
)

// Naive is the brute-force miner (Algorithms 3–4): it enumerates every
// candidate (F, V, agg, A, M) independently and, for each, evaluates one
// retrieval query per fragment — a full scan of the relation per
// fragment. It shares nothing and exists as the experimental baseline for
// Figure 3a. Its selections run on a dense table: the *engine.Table it
// is given, or one copy of a SegTable's rows (denseOf). With
// Options.Parallelism > 1 the per-attribute-set work fans out across a
// shared pool; the pattern set is identical to the sequential run.
func Naive(r engine.Relation, opt Options) (*Result, error) {
	opt, err := opt.withDefaults(r)
	if err != nil {
		return nil, err
	}
	tab, err := denseOf(r)
	if err != nil {
		return nil, err
	}
	var gs [][]string
	for size := 2; size <= opt.MaxPatternSize && size <= len(opt.Attributes); size++ {
		gs = append(gs, combinations(opt.Attributes, size)...)
	}

	pool := runPool(opt.Parallelism)
	outs := make([]Result, len(gs))
	err = pool.ForEach("mine:naive", len(gs), func(i int) error {
		g := gs[i]
		out := &outs[i]
		aggs := aggSpecsFor(r, opt.AggFuncs, g)
		for _, sp := range splits(g) {
			for _, a := range aggs {
				for _, m := range opt.Models {
					p := pattern.Pattern{F: sp[0], V: sp[1], Agg: a, Model: m}
					out.Candidates++
					mined, err := naivePatternHolds(p, tab, opt.Thresholds, &out.Timers)
					if err != nil {
						return err
					}
					if mined != nil {
						out.Patterns = append(out.Patterns, mined)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{}
	for i := range outs {
		res.Patterns = append(res.Patterns, outs[i].Patterns...)
		res.Candidates += outs[i].Candidates
		res.Timers.Add(outs[i].Timers)
	}
	res.sortPatterns()
	return res, nil
}

// denseOf returns r as a dense table: r itself when it is one, or the
// one copy of its rows a SegTable materializes.
func denseOf(r engine.Relation) (*engine.Table, error) {
	switch t := r.(type) {
	case *engine.Table:
		return t, nil
	case *engine.SegTable:
		return t.Materialize(), nil
	}
	return nil, fmt.Errorf("mining: NAIVE selects over a Table or a SegTable, got %T", r)
}

// naivePatternHolds mirrors Algorithm 4: enumerate the fragments of P,
// δ_F(R) = γ_F(R), run the retrieval query γ_{V,agg}(σ_{F=f}(R)) for
// each, fit a model, and apply the global thresholds.
func naivePatternHolds(p pattern.Pattern, r *engine.Table, th pattern.Thresholds, tm *pattern.Timers) (*pattern.Mined, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Canonical attribute order, matching pattern.FitShared, so fragment
	// keys agree across miner variants.
	p.F = pattern.SortedCopy(p.F)
	p.V = pattern.SortedCopy(p.V)
	t0 := time.Now()
	frags, err := r.GroupBy(p.F, nil)
	if err != nil {
		return nil, err
	}
	tm.Query += time.Since(t0)

	mined := &pattern.Mined{
		Pattern: p,
		Locals:  make(map[string]*pattern.LocalModel),
	}
	numSupp := 0
	for _, frag := range frags.Rows() {
		t0 = time.Now()
		sel, err := r.SelectEq(p.F, frag)
		if err != nil {
			return nil, err
		}
		q, err := sel.GroupBy(p.V, []engine.AggSpec{p.Agg})
		if err != nil {
			return nil, err
		}
		tm.Query += time.Since(t0)

		mined.NumFragments++
		xs := make([][]float64, 0, q.NumRows())
		ys := make([]float64, 0, q.NumRows())
		numericX, numericY := true, true
		aggCol := len(p.V)
		for _, row := range q.Rows() {
			y, ok := row[aggCol].AsFloat()
			if !ok {
				numericY = false
				break
			}
			ys = append(ys, y)
			if numericX {
				if enc, ok := pattern.EncodePredictors(value.Tuple(row[:aggCol])); ok {
					xs = append(xs, enc)
				} else {
					numericX = false
				}
			}
		}
		if !numericY || len(ys) < th.LocalSupport {
			continue
		}
		numSupp++
		if p.Model == regress.Lin && !numericX {
			continue
		}
		var x [][]float64
		if p.Model == regress.Lin {
			x = xs
		} else {
			x = make([][]float64, len(ys))
		}
		t0 = time.Now()
		model, ferr := regress.Fit(p.Model, x, ys)
		tm.Regression += time.Since(t0)
		if ferr != nil || model.GoF() < th.Theta {
			continue
		}
		lm := &pattern.LocalModel{Frag: frag.Clone(), Model: model, Support: len(ys)}
		for i, y := range ys {
			var pred float64
			if p.Model == regress.Lin {
				pred = model.Predict(xs[i])
			} else {
				pred = model.Predict(nil)
			}
			dev := y - pred
			if dev > lm.MaxPosDev {
				lm.MaxPosDev = dev
			}
			if dev < lm.MaxNegDev {
				lm.MaxNegDev = dev
			}
		}
		mined.AddLocal(frag.Key(), lm)
	}

	conf, ok := th.HoldsGlobally(mined.GlobalSupport(), numSupp)
	if !ok {
		return nil, nil
	}
	mined.NumSupported = numSupp
	mined.Confidence = conf
	return mined, nil
}
