package mining

import (
	"time"

	"cape/internal/engine"
	"cape/internal/fd"
	"cape/internal/pattern"
)

// ARPMine is the paper's Algorithm 2: the ShareGrp query sharing plus
// (i) sort-order reuse — one sort of the grouped result serves every
// (F, V) split whose F is a prefix of the sort order — and (ii) optional
// functional-dependency pruning: patterns whose partition attributes are
// non-minimal w.r.t. detected FDs, or where F functionally determines V,
// are skipped (Appendix D). FDs are detected for free from the group
// counts the miner computes anyway.
//
// The group-by phase is groupAll: the size-ψ groupings scan the
// relation, every smaller one rolls up from a superset's result. FD
// detection and exploration then run in ascending level order, so
// pruning sees exactly the FDs a level-by-level run would. With
// Options.Parallelism > 1, the independent per-attribute-set work
// (group-bys and sort-order exploration) fans out across goroutines
// level by level; FD detection stays sequential between levels,
// preserving the invariant that an FD is known before any pattern that
// could use it is considered. Results are identical to the
// sequential run; Timers then aggregate CPU time across workers rather
// than wall-clock time.
func ARPMine(r engine.Relation, opt Options) (*Result, error) {
	opt, err := opt.withDefaults(r)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	pool := runPool(opt.Parallelism)
	fds := opt.InitialFDs
	if fds == nil {
		fds = fd.NewSet()
	}
	groupSizes := make(map[string]int)

	if opt.UseFDs {
		res.FDs = fds
		// Record singleton distinct counts so FDs with single-attribute
		// left-hand sides are detectable at |G| = 2.
		t0 := time.Now()
		for _, a := range opt.Attributes {
			n, err := r.CountDistinct([]string{a})
			if err != nil {
				return nil, err
			}
			groupSizes[fd.Key([]string{a})] = n
		}
		res.Timers.Query += time.Since(t0)
	}

	levels, err := groupAll(r, opt, pool, false)
	if err != nil {
		return nil, err
	}
	for _, level := range levels {
		// Record group counts and detect FDs, in ascending level order.
		// A level's exploration starts only after its own and every lower
		// level's FDs are detected, so an FD is known before any candidate
		// that could use it, whatever the detection order within a level.
		for _, gr := range level {
			groupSizes[fd.Key(gr.attrs)] = gr.table.NumRows()
			if opt.UseFDs {
				fds.Detect(groupSizes, gr.attrs)
			}
			res.Timers.Query += gr.query
		}

		// Explore sort orders per G, in parallel.
		outs := make([]Result, len(level))
		err = pool.ForEach("mine:arpmine-sort", len(level), func(i int) error {
			gr := level[i]
			return exploreSortOrders(gr.attrs, gr.table, gr.aggs, opt, fds, &outs[i])
		})
		if err != nil {
			return nil, err
		}
		for i := range outs {
			res.Patterns = append(res.Patterns, outs[i].Patterns...)
			res.Candidates += outs[i].Candidates
			res.SkippedByFD += outs[i].SkippedByFD
			res.Timers.Add(outs[i].Timers)
		}
	}
	res.sortPatterns()
	return res, nil
}

// exploreSortOrders is Algorithm 5 on the fast path: instead of copying
// and re-sorting the grouped rows per sort order, eachSplit sorts one
// row-index permutation over the grouped table's dictionary ranks,
// reusing the sorted prefix shared with the previous order, and every
// split it yields is fitted through one SharedFitter that scans
// fragments columnar.
func exploreSortOrders(g []string, grouped *engine.Table, aggs []engine.AggSpec,
	opt Options, fds *fd.Set, res *Result) error {

	fitter, err := pattern.NewSharedFitter(grouped, aggs, opt.Models, opt.Thresholds)
	if err != nil {
		return err
	}
	return eachSplit(grouped, g, &res.Timers, func(f, v []string, perm []int32) error {
		if opt.UseFDs && (!fds.IsMinimal(f) || fds.DeterminesAll(f, v)) {
			res.SkippedByFD++
			return nil
		}
		res.Candidates += len(aggs) * len(opt.Models)
		mined, err := fitter.Fit(f, v, perm, &res.Timers)
		if err != nil {
			return err
		}
		res.Patterns = append(res.Patterns, mined...)
		return nil
	})
}
