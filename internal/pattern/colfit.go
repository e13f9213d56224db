package pattern

import (
	"fmt"
	"time"

	"cape/internal/engine"
	"cape/internal/regress"
	"cape/internal/value"
)

// SharedFitter evaluates pattern candidates over one grouped table,
// columnar: aggregate and predictor observations come straight from the
// engine's columnar view (flat float64 buffers plus numeric masks, built
// once per table and shared with every other operator), and each Fit
// call scans fragment runs of a sorted row permutation as subslices with
// reusable scratch buffers. Nothing is re-decoded or re-boxed into
// value.Tuple rows, no per-fragment observation slices are allocated,
// and thresholds are validated once — this is the offline-mining hot
// path behind ARPMine, ShareGrp, and CubeMine.
//
// A SharedFitter is not safe for concurrent use; miners construct one
// per grouped table inside their per-attribute-set workers. (The
// underlying engine.Columnar is itself safe to share.)
type SharedFitter struct {
	grouped *engine.Table
	cols    *engine.Columnar
	aggs    []engine.AggSpec
	models  []regress.ModelType
	th      Thresholds
	hasLin  bool

	aggVal [][]float64 // [agg][row]: aggregate observation (engine buffer)
	aggOK  [][]bool    // [agg][row]: observation numeric? (engine buffer)

	// Scratch reused across fragments and Fit calls.
	ys       []float64
	xs       []float64
	keyBuf   []byte
	stats    regress.ConstStats
	lin      regress.LinScratch
	cands    []candState
	fragEnds []int32
}

// candState tracks one (aggregate, model) candidate across the fragment
// scan of a single Fit call.
type candState struct {
	p       Pattern
	mined   *Mined // allocated on the first locally-holding fragment
	numSupp int
	numFrag int
}

// NewSharedFitter validates the thresholds once and binds the aggregate
// columns of grouped to the engine's flat columnar buffers (built on
// first use, cached on the table). grouped must contain one column per
// aggregate in aggs, named engine.AggSpec.String().
func NewSharedFitter(grouped *engine.Table, aggs []engine.AggSpec,
	models []regress.ModelType, th Thresholds) (*SharedFitter, error) {

	if err := th.Validate(); err != nil {
		return nil, err
	}
	sch := grouped.Schema()
	sf := &SharedFitter{
		grouped: grouped,
		cols:    grouped.Columns(),
		aggs:    aggs,
		models:  models,
		th:      th,
		aggVal:  make([][]float64, len(aggs)),
		aggOK:   make([][]bool, len(aggs)),
	}
	for _, m := range models {
		if m == regress.Lin {
			sf.hasLin = true
		}
	}
	for i, a := range aggs {
		ci := sch.Index(a.String())
		if ci < 0 {
			return nil, fmt.Errorf("pattern: sorted input missing aggregate column %q", a.String())
		}
		col := sf.cols.FlatCol(ci)
		sf.aggVal[i] = col.F64
		sf.aggOK[i] = col.Num
	}
	return sf, nil
}

// predictorCol returns the engine's flat view of one predictor column
// (F64 is 0 and Num false exactly where AsFloat would decline, so the
// semantics match the previous per-fitter decode).
func (sf *SharedFitter) predictorCol(ci int) ([]float64, []bool) {
	col := sf.cols.FlatCol(ci)
	return col.F64, col.Num
}

// Fit evaluates, in a single scan, every (aggregate, model) candidate
// sharing the partition attributes f and predictor attributes v. perm is
// a permutation of the grouped table's rows sorted by f then v (any
// attribute order within each set); nil means the table itself is
// already sorted. codes, when non-nil, supplies dense sort codes for
// fragment-boundary detection; otherwise boundaries fall back to boxed
// value comparison. The returned slice holds one *Mined per candidate
// that holds globally. This implements the paper's "one query for all
// patterns sharing F and V" optimization plus Algorithm 6's block scan.
func (sf *SharedFitter) Fit(f, v []string, perm []int32, codes *engine.SortCodes, tm *Timers) ([]*Mined, error) {
	// Canonicalize attribute order so the same (F, V) pair produces
	// identical pattern keys and fragment keys regardless of which sort
	// order or enumeration order discovered it. Fragment blocks stay
	// consecutive under any permutation of F.
	f = SortedCopy(f)
	v = SortedCopy(v)
	sch := sf.grouped.Schema()
	fIdx, err := sch.Indices(f)
	if err != nil {
		return nil, err
	}
	vIdx, err := sch.Indices(v)
	if err != nil {
		return nil, err
	}

	// Fragment boundaries compare dense int codes when available.
	var fCodes [][]int32
	if codes != nil {
		fCodes = make([][]int32, 0, len(f))
		for _, a := range f {
			c := codes.Codes(a)
			if c == nil {
				fCodes = nil
				break
			}
			fCodes = append(fCodes, c)
		}
	}

	// Predictor columns, decoded once per grouped table.
	vVal := make([][]float64, len(vIdx))
	vOK := make([][]bool, len(vIdx))
	for i, ci := range vIdx {
		vVal[i], vOK[i] = sf.predictorCol(ci)
	}

	if cap(sf.cands) < len(sf.aggs)*len(sf.models) {
		sf.cands = make([]candState, len(sf.aggs)*len(sf.models))
	}
	cands := sf.cands[:len(sf.aggs)*len(sf.models)]
	for ai, a := range sf.aggs {
		for mi, m := range sf.models {
			p := Pattern{F: f, V: v, Agg: a, Model: m}
			if err := p.Validate(); err != nil {
				return nil, err
			}
			cands[ai*len(sf.models)+mi] = candState{p: p}
		}
	}

	n := sf.grouped.NumRows()
	start := int32(0)
	for _, end := range sf.fragmentEnds(fIdx, fCodes, perm, n) {
		if err := sf.flushFragment(cands, fIdx, vVal, vOK, perm, int(start), int(end), tm); err != nil {
			return nil, err
		}
		start = end
	}

	// Decide global holding per candidate (Definition 4).
	var out []*Mined
	for i := range cands {
		cs := &cands[i]
		if cs.mined == nil || cs.numSupp == 0 {
			continue
		}
		good := len(cs.mined.Locals)
		if good < sf.th.GlobalSupport {
			continue
		}
		conf := float64(good) / float64(cs.numSupp)
		if conf < sf.th.Lambda {
			continue
		}
		cs.mined.NumFragments = cs.numFrag
		cs.mined.NumSupported = cs.numSupp
		cs.mined.Confidence = conf
		out = append(out, cs.mined)
	}
	return out, nil
}

// fragmentEnds computes the exclusive end row of every fragment of the
// scan, in order, into a reusable buffer: a tight loop over the dense
// sort codes when available, otherwise boxed value comparison (the
// reference).
func (sf *SharedFitter) fragmentEnds(fIdx []int, fCodes [][]int32, perm []int32, n int) []int32 {
	ends := sf.fragEnds[:0]
	switch {
	case n == 0:
	case len(fIdx) == 0:
		ends = append(ends, int32(n))
	case fCodes != nil && perm != nil:
		for r := 1; r < n; r++ {
			pa, pb := perm[r-1], perm[r]
			for _, c := range fCodes {
				if c[pa] != c[pb] {
					ends = append(ends, int32(r))
					break
				}
			}
		}
		ends = append(ends, int32(n))
	case fCodes != nil:
		for r := 1; r < n; r++ {
			for _, c := range fCodes {
				if c[r-1] != c[r] {
					ends = append(ends, int32(r))
					break
				}
			}
		}
		ends = append(ends, int32(n))
	default:
		rows := sf.grouped.Rows()
		prev := rows[0]
		if perm != nil {
			prev = rows[perm[0]]
		}
		for r := 1; r < n; r++ {
			cur := rows[r]
			if perm != nil {
				cur = rows[perm[r]]
			}
			for _, ci := range fIdx {
				if !value.Equal(prev[ci], cur[ci]) {
					ends = append(ends, int32(r))
					break
				}
			}
			prev = cur
		}
		ends = append(ends, int32(n))
	}
	sf.fragEnds = ends
	return ends
}

// flushFragment evaluates all candidates on the fragment perm[lo:hi].
func (sf *SharedFitter) flushFragment(cands []candState, fIdx []int,
	vVal [][]float64, vOK [][]bool, perm []int32, lo, hi int, tm *Timers) error {

	n := hi - lo
	d := len(vVal)
	rowAt := func(r int) int32 {
		if perm != nil {
			return perm[r]
		}
		return int32(r)
	}

	// Gather the fragment's predictor matrix once (flat, stride d) when
	// any Lin candidate will need it.
	numericX := true
	xs := sf.xs[:0]
	if sf.hasLin {
	gather:
		for r := lo; r < hi; r++ {
			ri := rowAt(r)
			for i := 0; i < d; i++ {
				if !vOK[i][ri] {
					numericX = false
					break gather
				}
				xs = append(xs, vVal[i][ri])
			}
		}
		sf.xs = xs
	}

	// Fragment identity, materialized lazily on the first local hold.
	var frag value.Tuple
	var fragKey string

	for ai := range sf.aggs {
		vals, oks := sf.aggVal[ai], sf.aggOK[ai]
		// One pass per aggregate: numeric check, sufficient statistics
		// for Const, and the observation vector for Lin.
		numericY := true
		sf.stats.Reset()
		ys := sf.ys[:0]
		for r := lo; r < hi; r++ {
			ri := rowAt(r)
			if !oks[ri] {
				numericY = false
				break
			}
			y := vals[ri]
			sf.stats.Add(y)
			ys = append(ys, y)
		}
		sf.ys = ys

		for mi := range sf.models {
			cs := &cands[ai*len(sf.models)+mi]
			cs.numFrag++
			if !numericY || n < sf.th.LocalSupport {
				continue // insufficient local support
			}
			cs.numSupp++
			isLin := cs.p.Model == regress.Lin
			if isLin && !numericX {
				continue // Lin needs numeric predictors
			}
			var t0 time.Time
			if tm != nil {
				t0 = time.Now()
			}
			// Fit without materializing a Model: most fragments fail the
			// GoF threshold, and the rejects must not allocate.
			var gof, cmean float64
			var ferr error
			if isLin {
				gof, ferr = regress.FitLinInto(xs[:n*d], d, ys, &sf.lin)
			} else {
				cmean, gof, ferr = sf.stats.FitParams()
			}
			if tm != nil {
				tm.Regression += time.Since(t0)
			}
			if ferr != nil {
				continue // singular fit etc.: pattern does not hold here
			}
			if gof < sf.th.Theta {
				continue
			}
			var model regress.Model
			if isLin {
				model = sf.lin.Model(gof)
			} else {
				model = regress.NewConst(cmean, gof)
			}
			if frag == nil {
				rows := sf.grouped.Rows()
				first := rows[rowAt(lo)]
				frag = make(value.Tuple, len(fIdx))
				for i, ci := range fIdx {
					frag[i] = first[ci]
				}
				sf.keyBuf = frag.AppendKey(sf.keyBuf[:0])
				fragKey = string(sf.keyBuf)
			}
			lm := &LocalModel{Frag: frag, Model: model, Support: n}
			if isLin {
				for i, y := range ys {
					dev := y - model.Predict(xs[i*d:(i+1)*d])
					if dev > lm.MaxPosDev {
						lm.MaxPosDev = dev
					}
					if dev < lm.MaxNegDev {
						lm.MaxNegDev = dev
					}
				}
			} else {
				// For a Const model, max(y − mean) = max(y) − mean and
				// min(y − mean) = min(y) − mean exactly (subtraction is
				// monotone), so the extremes come from the statistics.
				mean := model.Predict(nil)
				if dev := sf.stats.Max - mean; dev > 0 {
					lm.MaxPosDev = dev
				}
				if dev := sf.stats.Min - mean; dev < 0 {
					lm.MaxNegDev = dev
				}
			}
			if cs.mined == nil {
				cs.mined = &Mined{
					Pattern: cs.p,
					Locals:  make(map[string]*LocalModel),
				}
			}
			cs.mined.Locals[fragKey] = lm
			if lm.MaxPosDev > cs.mined.MaxPosDev {
				cs.mined.MaxPosDev = lm.MaxPosDev
			}
			if lm.MaxNegDev < cs.mined.MaxNegDev {
				cs.mined.MaxNegDev = lm.MaxNegDev
			}
		}
	}
	return nil
}
