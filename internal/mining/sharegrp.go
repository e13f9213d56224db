package mining

import (
	"time"

	"cape/internal/engine"
	"cape/internal/pattern"
)

// ShareGrp shares one group-by query across every pattern with the same
// attribute set F ∪ V ("one query per F ∪ V" + "one query for all
// patterns sharing F and V" from Section 4.1): the aggregation over G is
// computed once with all aggregate expressions, then re-sorted once per
// (F, V) split. With Options.Parallelism > 1 the per-attribute-set work
// fans out across goroutines; results are identical to the sequential
// run.
func ShareGrp(r engine.Relation, opt Options) (*Result, error) {
	opt, err := opt.withDefaults(r)
	if err != nil {
		return nil, err
	}
	var gs [][]string
	for size := 2; size <= opt.MaxPatternSize && size <= len(opt.Attributes); size++ {
		gs = append(gs, combinations(opt.Attributes, size)...)
	}

	pool, detach := runPool(r, opt.Parallelism)
	defer detach()
	outs := make([]Result, len(gs))
	err = pool.ForEach("mine:sharegrp", len(gs), func(i int) error {
		g := gs[i]
		out := &outs[i]
		aggs := aggSpecsFor(r, opt.AggFuncs, g)
		t0 := time.Now()
		grouped, err := r.GroupBy(g, aggs)
		if err != nil {
			return err
		}
		codes, err := engine.BuildSortCodes(grouped, g)
		if err != nil {
			return err
		}
		perm := codes.NewPerm()
		out.Timers.Query += time.Since(t0)
		fitter, err := pattern.NewSharedFitter(grouped, aggs, opt.Models, opt.Thresholds)
		if err != nil {
			return err
		}
		for _, sp := range splits(g) {
			f, v := sp[0], sp[1]
			// One full index sort per split: ShareGrp deliberately skips
			// ARPMine's sort-order reuse, keeping its historical cost shape.
			t0 = time.Now()
			if err := codes.SortPerm(perm, append(append([]string{}, f...), v...), 0); err != nil {
				return err
			}
			out.Timers.Query += time.Since(t0)
			out.Candidates += len(aggs) * len(opt.Models)
			mined, err := fitter.Fit(f, v, perm, &out.Timers)
			if err != nil {
				return err
			}
			out.Patterns = append(out.Patterns, mined...)
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
