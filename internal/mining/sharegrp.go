package mining

import (
	"slices"
	"time"

	"cape/internal/engine"
	"cape/internal/pattern"
)

// ShareGrp shares one group-by query across every pattern with the same
// attribute set F ∪ V ("one query per F ∪ V" + "one query for all
// patterns sharing F and V" from Section 4.1): the aggregation over G is
// computed once with all aggregate expressions, then re-sorted once per
// (F, V) split. Its group-by phase is ARPMine's (groupAll), so the two
// differ only in ARPMine's sort-order reuse and optional FD pruning.
// With Options.Parallelism > 1 the per-attribute-set work fans out
// across goroutines; results are identical to the sequential run.
func ShareGrp(r engine.Relation, opt Options) (*Result, error) {
	opt, err := opt.withDefaults(r)
	if err != nil {
		return nil, err
	}
	pool := runPool(opt.Parallelism)
	levels, err := groupAll(r, opt, pool, false)
	if err != nil {
		return nil, err
	}
	gs := slices.Concat(levels...)
	outs := make([]Result, len(gs))
	err = pool.ForEach("mine:sharegrp", len(gs), func(i int) error {
		gr, out := gs[i], &outs[i]
		out.Timers.Query += gr.query
		t0 := time.Now()
		codes, err := engine.BuildSortCodes(gr.table, gr.attrs)
		if err != nil {
			return err
		}
		perm := codes.NewPerm()
		out.Timers.Query += time.Since(t0)
		fitter, err := pattern.NewSharedFitter(gr.table, gr.aggs, opt.Models, opt.Thresholds)
		if err != nil {
			return err
		}
		for _, sp := range splits(gr.attrs) {
			f, v := sp[0], sp[1]
			// One full index sort per split: ShareGrp deliberately skips
			// ARPMine's sort-order reuse, keeping its historical cost shape.
			t0 = time.Now()
			if err := codes.SortPerm(perm, append(append([]string{}, f...), v...), 0); err != nil {
				return err
			}
			out.Timers.Query += time.Since(t0)
			out.Candidates += len(gr.aggs) * len(opt.Models)
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
