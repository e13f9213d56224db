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
// With Options.Parallelism > 1, the independent per-attribute-set work
// (group-by evaluation and sort-order exploration) fans out across
// goroutines level by level; FD detection stays sequential between
// phases, preserving the invariant that an FD is known before any
// pattern that could use it is considered. Results are identical to the
// sequential run; Timers then aggregate CPU time across workers rather
// than wall-clock time.
func ARPMine(r engine.Relation, opt Options) (*Result, error) {
	opt, err := opt.withDefaults(r)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	pool, detach := runPool(r, opt.Parallelism)
	defer detach()
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

	for size := 2; size <= opt.MaxPatternSize && size <= len(opt.Attributes); size++ {
		gs := combinations(opt.Attributes, size)

		// Phase 1 (parallel): one multi-aggregate group-by per G.
		type gState struct {
			aggs    []engine.AggSpec
			grouped *engine.Table
			timers  pattern.Timers
			out     Result
		}
		states := make([]gState, len(gs))
		err := pool.ForEach("mine:arpmine-group", len(gs), func(i int) error {
			st := &states[i]
			st.aggs = aggSpecsFor(r, opt.AggFuncs, gs[i])
			t0 := time.Now()
			grouped, err := r.GroupBy(gs[i], st.aggs)
			if err != nil {
				return err
			}
			st.timers.Query += time.Since(t0)
			st.grouped = grouped
			return nil
		})
		if err != nil {
			return nil, err
		}

		// Phase 2 (sequential): record group counts, detect FDs. Every FD
		// usable at this level has a left-hand side of size ≤ size−1 and
		// was detected at an earlier level, so detection order within the
		// level does not affect pruning decisions.
		for i, g := range gs {
			groupSizes[fd.Key(g)] = states[i].grouped.NumRows()
			if opt.UseFDs {
				fds.Detect(groupSizes, g)
			}
		}

		// Phase 3 (parallel): explore sort orders per G.
		err = pool.ForEach("mine:arpmine-sort", len(gs), func(i int) error {
			st := &states[i]
			return exploreSortOrders(gs[i], st.grouped, st.aggs, opt, fds, &st.out)
		})
		if err != nil {
			return nil, err
		}

		for i := range states {
			st := &states[i]
			res.Patterns = append(res.Patterns, st.out.Patterns...)
			res.Candidates += st.out.Candidates
			res.SkippedByFD += st.out.SkippedByFD
			res.Timers.Add(st.timers)
			res.Timers.Add(st.out.Timers)
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
