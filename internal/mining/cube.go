package mining

import (
	"time"

	"cape/internal/engine"
	"cape/internal/pattern"
)

// CubeMine materializes a single CUBE query covering every grouping of
// size 2..ψ over the mining attributes (Section 4.1, "Using the CUBE BY
// operator"), then serves each pattern candidate by slicing and sorting
// the materialized result. The cube pays for every grouping up front —
// the cost that makes this variant lose to ShareGrp/ARPMine as the
// attribute count grows (Figure 3a).
func CubeMine(r engine.Relation, opt Options) (*Result, error) {
	opt, err := opt.withDefaults(r)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	maxSize := opt.MaxPatternSize
	if maxSize > len(opt.Attributes) {
		maxSize = len(opt.Attributes)
	}
	if maxSize < 2 {
		return res, nil
	}

	// One cube evaluates all aggregates over all attributes; aggregates
	// whose argument falls inside a particular grouping are simply unused
	// for that grouping (mirroring the GROUPING() filter in SQL). The
	// cube's own groupings fan across the pool inside engine.Cube; the
	// per-attribute-set slicing and fitting below fans across the same
	// pool afterwards, with per-G results merged in enumeration order.
	pool := runPool(opt.Parallelism)
	allAggs := aggSpecsFor(r, opt.AggFuncs, nil)
	t0 := time.Now()
	cube, err := engine.Cube(r, pool, opt.Attributes, 2, maxSize, allAggs)
	if err != nil {
		return nil, err
	}
	res.Timers.Query += time.Since(t0)

	var gs [][]string
	for size := 2; size <= maxSize; size++ {
		gs = append(gs, combinations(opt.Attributes, size)...)
	}
	outs := make([]Result, len(gs))
	err = pool.ForEach("mine:cube", len(gs), func(i int) error {
		g := gs[i]
		out := &outs[i]
		aggs := aggSpecsFor(r, opt.AggFuncs, g)
		t0 := time.Now()
		slice, err := engine.CubeSlice(cube, opt.Attributes, g, aggs)
		if err != nil {
			return err
		}
		codes, err := engine.BuildSortCodes(slice, g)
		if err != nil {
			return err
		}
		perm := codes.NewPerm()
		out.Timers.Query += time.Since(t0)
		fitter, err := pattern.NewSharedFitter(slice, aggs, opt.Models, opt.Thresholds)
		if err != nil {
			return err
		}
		for _, sp := range splits(g) {
			f, v := sp[0], sp[1]
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
	for i := range outs {
		res.Patterns = append(res.Patterns, outs[i].Patterns...)
		res.Candidates += outs[i].Candidates
		res.Timers.Add(outs[i].Timers)
	}
	res.sortPatterns()
	return res, nil
}
