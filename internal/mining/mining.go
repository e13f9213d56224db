// Package mining implements the ARP-mining problem (Section 4 of the CAPE
// paper): given a relation and the four thresholds, find every aggregate
// regression pattern that holds globally. Four miner variants are
// provided, matching the paper's experimental comparison:
//
//   - Naive: brute force — one retrieval query per pattern per fragment
//     (Algorithms 3 and 4).
//   - ShareGrp: one group-by query per attribute set F ∪ V, evaluating all
//     aggregates at once; one sort per (F, V) split.
//   - CubeMine: a single CUBE query materializes every grouping; per-
//     pattern work is slicing + sorting the materialized result.
//   - ARPMine: ShareGrp plus sort-order reuse across (F, V) splits and
//     optional functional-dependency pruning (Algorithm 2, Appendix D).
package mining

import (
	"fmt"
	"sort"

	"cape/internal/engine"
	"cape/internal/fd"
	"cape/internal/pattern"
	"cape/internal/regress"
	"cape/internal/value"
)

// Options configures a mining run.
type Options struct {
	// MaxPatternSize is ψ: the maximum |F ∪ V| considered. Minimum 2.
	MaxPatternSize int
	// Thresholds are the four ARP thresholds (θ, δ, λ, Δ).
	Thresholds pattern.Thresholds
	// Attributes restricts mining to these columns; nil means every
	// column of the input relation.
	Attributes []string
	// AggFuncs lists the aggregate functions to consider. count is
	// evaluated as count(*); the others are evaluated over every numeric
	// attribute outside F ∪ V. Default: {count, sum}.
	AggFuncs []engine.AggFunc
	// Models lists the regression families to consider.
	// Default: {Const, Lin}.
	Models []regress.ModelType
	// UseFDs enables the Appendix-D functional-dependency optimizations
	// (only honored by ARPMine).
	UseFDs bool
	// InitialFDs seeds the FD set (e.g. from known keys); may be nil.
	InitialFDs *fd.Set
	// Parallelism is the width of the bounded worker pool one run shares
	// across every parallel stage: all four miners (and the Maintainer,
	// at its build and at every CatchUp) fan per-attribute-set work
	// across it, and CubeMine hands the same pool to engine.Cube, which
	// fans the cube's masks across it too — nested fan-out never
	// oversubscribes the width. The relation holds no pool: each run
	// owns its own. Each group-by is one sequential scan at every width.
	// 0 (or less) is the machine's width, runtime.GOMAXPROCS(0); 1 runs
	// sequentially, on the same code. Every width produces the identical
	// pattern set, float summation order included; above width 1,
	// Result.Timers sum the time of every worker, so query + regression
	// can exceed the run's wall-clock time.
	Parallelism int
}

// withDefaults fills zero-valued options.
func (o Options) withDefaults(r engine.Relation) (Options, error) {
	if o.MaxPatternSize == 0 {
		o.MaxPatternSize = 4
	}
	if o.MaxPatternSize < 2 {
		return o, fmt.Errorf("mining: ψ = %d must be ≥ 2", o.MaxPatternSize)
	}
	if o.Thresholds == (pattern.Thresholds{}) {
		o.Thresholds = pattern.DefaultThresholds()
	}
	if err := o.Thresholds.Validate(); err != nil {
		return o, err
	}
	if len(o.Attributes) == 0 {
		o.Attributes = r.Schema().Names()
	} else if _, err := r.Schema().Indices(o.Attributes); err != nil {
		return o, err
	}
	if len(o.AggFuncs) == 0 {
		o.AggFuncs = []engine.AggFunc{engine.Count, engine.Sum}
	}
	if len(o.Models) == 0 {
		o.Models = []regress.ModelType{regress.Const, regress.Lin}
	}
	return o, nil
}

// Result is the outcome of a mining run.
type Result struct {
	// Patterns holds every pattern found to hold globally, with local
	// models attached.
	Patterns []*pattern.Mined
	// Timers break the run into query / regression / other, for the
	// Figure-4 subtask analysis.
	Timers pattern.Timers
	// Candidates is the number of (F, V, agg, A, M) candidates examined.
	Candidates int
	// SkippedByFD counts candidate (F, V) pairs pruned by the FD
	// optimizations.
	SkippedByFD int
	// FDs is the final FD set (detected + initial); nil unless FDs were
	// used.
	FDs *fd.Set
}

// sortPatterns orders the result deterministically by pattern key.
func (res *Result) sortPatterns() {
	sort.Slice(res.Patterns, func(i, j int) bool {
		return res.Patterns[i].Pattern.Key() < res.Patterns[j].Pattern.Key()
	})
}

// aggSpecsFor returns the aggregate expressions evaluable for a grouping
// on g: count(*) when count is requested, and f(A) for every other
// requested function f and every attribute A of the relation that is
// outside g (per Definition 2, A ∉ F ∪ V). Only numeric or untyped
// columns are used as arguments, since regression needs numeric
// observations.
func aggSpecsFor(r engine.Relation, funcs []engine.AggFunc, g []string) []engine.AggSpec {
	inG := make(map[string]bool, len(g))
	for _, a := range g {
		inG[a] = true
	}
	var out []engine.AggSpec
	for _, f := range funcs {
		if f == engine.Count {
			out = append(out, engine.AggSpec{Func: engine.Count})
			continue
		}
		for _, col := range r.Schema() {
			if inG[col.Name] {
				continue
			}
			// Regression needs numeric observations; untyped columns are
			// allowed and simply fail per-fragment if non-numeric.
			if col.Kind == value.Int || col.Kind == value.Float || col.Kind == value.Null {
				out = append(out, engine.AggSpec{Func: f, Arg: col.Name})
			}
		}
	}
	return out
}

// eachCombination calls fn with every k-element subset of attrs in
// lexicographic index order, preserving input order within each subset.
// The slice passed to fn is reused between calls; fn must copy it if it
// retains it. Generation is lazy — nothing is materialized, so miners
// that only stream subsets pay no allocation for the enumeration.
func eachCombination(attrs []string, k int, fn func([]string) error) error {
	if k <= 0 || k > len(attrs) {
		return nil
	}
	idx := make([]int, k)
	sub := make([]string, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		for i, j := range idx {
			sub[i] = attrs[j]
		}
		if err := fn(sub); err != nil {
			return err
		}
		// advance
		i := k - 1
		for i >= 0 && idx[i] == len(attrs)-k+i {
			i--
		}
		if i < 0 {
			return nil
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// combinations materializes all k-element subsets of attrs, for callers
// (the parallel miners) that need an indexable work list.
func combinations(attrs []string, k int) [][]string {
	var out [][]string
	eachCombination(attrs, k, func(sub []string) error {
		out = append(out, append([]string(nil), sub...))
		return nil
	})
	return out
}

// splits returns every (F, V) partition of g into two non-empty sets,
// where F takes each non-empty proper subset of g.
func splits(g []string) [][2][]string {
	n := len(g)
	var out [][2][]string
	for mask := 1; mask < (1<<uint(n))-1; mask++ {
		var f, v []string
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				f = append(f, g[i])
			} else {
				v = append(v, g[i])
			}
		}
		out = append(out, [2][]string{f, v})
	}
	return out
}

// pairKey canonically identifies an (F, V) pair.
func pairKey(f, v []string) string { return fd.Key(f) + "||" + fd.Key(v) }
