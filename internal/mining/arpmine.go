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

		// Phase 3 (parallel): explore sort orders per G. The tested-pair
		// set is per G because (F, V) pairs from different attribute sets
		// never coincide.
		err = pool.ForEach("mine:arpmine-sort", len(gs), func(i int) error {
			st := &states[i]
			tested := make(map[string]bool)
			return exploreSortOrders(gs[i], st.grouped, st.aggs, opt, fds, tested, &st.out)
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
// and re-sorting the grouped rows per sort order, it dictionary-encodes
// the grouping columns once (BuildSortCodes) and sorts a row-index
// permutation, reusing the sorted prefix shared with the previous order.
// The orders come from the minimal cover (C(n, ⌊n/2⌋) of the n!
// permutations); each order evaluates every split whose F is a prefix,
// through one SharedFitter that scans fragments columnar.
func exploreSortOrders(g []string, grouped *engine.Table, aggs []engine.AggSpec,
	opt Options, fds *fd.Set, tested map[string]bool, res *Result) error {

	t0 := time.Now()
	codes, err := engine.BuildSortCodes(grouped, g)
	if err != nil {
		return err
	}
	perm := codes.NewPerm()
	res.Timers.Query += time.Since(t0)

	fitter, err := pattern.NewSharedFitter(grouped, aggs, opt.Models, opt.Thresholds)
	if err != nil {
		return err
	}

	var prev []string
	for _, s := range sortOrderCover(g) {
		// Does this sort order cover anything new?
		covers := false
		for k := 1; k < len(s); k++ {
			if !tested[pairKey(s[:k], s[k:])] {
				covers = true
				break
			}
		}
		if !covers {
			continue
		}
		t0 := time.Now()
		if err := codes.SortPerm(perm, s, sharedPrefix(prev, s)); err != nil {
			return err
		}
		res.Timers.Query += time.Since(t0)
		prev = s

		for k := 1; k < len(s); k++ {
			f, v := s[:k], s[k:]
			pk := pairKey(f, v)
			if tested[pk] {
				continue
			}
			tested[pk] = true
			if opt.UseFDs && (!fds.IsMinimal(f) || fds.DeterminesAll(f, v)) {
				res.SkippedByFD++
				continue
			}
			res.Candidates += len(aggs) * len(opt.Models)
			mined, err := fitter.Fit(f, v, perm, &res.Timers)
			if err != nil {
				return err
			}
			res.Patterns = append(res.Patterns, mined...)
		}
	}
	return nil
}
