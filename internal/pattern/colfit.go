package pattern

import (
	"fmt"
	"math"
	"time"

	"cape/internal/engine"
	"cape/internal/regress"
	"cape/internal/value"
)

// SharedFitter evaluates pattern candidates over one grouped table,
// columnar: aggregate and predictor observations come straight from the
// table's columns (flat float64 buffers plus numeric masks, shared with
// every other operator), and each Fit call scans fragment runs of a
// sorted row permutation as subslices through one FragFit. Nothing is
// re-decoded or re-boxed into value.Tuple rows, no per-fragment
// observation slices are allocated, and thresholds are validated once —
// this is the offline-mining hot path behind ARPMine, ShareGrp, and
// CubeMine.
//
// A SharedFitter is not safe for concurrent use; miners construct one
// per grouped table inside their per-attribute-set workers. (The
// grouped table itself is safe to share.)
type SharedFitter struct {
	grouped *engine.Table
	aggs    []engine.AggSpec
	models  []regress.ModelType
	ys      []Obs // per aggregate: the grouped table's aggregate column

	// Scratch reused across fragments and Fit calls.
	fit      *FragFit
	keyBuf   []byte
	cands    []candState
	fragEnds []int32
}

// candState tracks one (aggregate, model) candidate across the fragment
// scan of a single Fit call.
type candState struct {
	p       Pattern
	mined   *Mined // allocated on the first locally-holding fragment
	numSupp int
}

// NewSharedFitter validates the thresholds once and binds the aggregate
// columns of grouped to the table's flat column buffers. grouped must
// contain one column per aggregate in aggs, named
// engine.AggSpec.String().
func NewSharedFitter(grouped *engine.Table, aggs []engine.AggSpec,
	models []regress.ModelType, th Thresholds) (*SharedFitter, error) {

	if err := th.Validate(); err != nil {
		return nil, err
	}
	sch := grouped.Schema()
	sf := &SharedFitter{
		grouped: grouped,
		aggs:    aggs,
		models:  models,
		ys:      make([]Obs, len(aggs)),
		fit:     NewFragFit(len(aggs), models, th),
	}
	for i, a := range aggs {
		ci := sch.Index(a.String())
		if ci < 0 {
			return nil, fmt.Errorf("pattern: sorted input missing aggregate column %q", a.String())
		}
		col := grouped.Col(ci)
		sf.ys[i] = Obs{F: col.F64, OK: col.Num}
	}
	return sf, nil
}

// Fit evaluates, in a single scan, every (aggregate, model) candidate
// sharing the partition attributes f and predictor attributes v. perm is
// a permutation of the grouped table's rows sorted by f then v (any
// attribute order within each set); nil means the table itself is
// already sorted. The returned slice holds one *Mined per candidate
// that holds globally. This implements the paper's "one query for all
// patterns sharing F and V" optimization plus Algorithm 6's block scan.
func (sf *SharedFitter) Fit(f, v []string, perm []int32, tm *Timers) ([]*Mined, error) {
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
	fCodes := make([][]int32, len(fIdx))
	for i, ci := range fIdx {
		fCodes[i] = sf.grouped.Col(ci).Codes
	}

	nc := len(sf.aggs) * len(sf.models)
	if cap(sf.cands) < nc {
		sf.cands = make([]candState, nc)
	}
	cands := sf.cands[:nc]
	for ai, a := range sf.aggs {
		for mi, m := range sf.models {
			p := Pattern{F: f, V: v, Agg: a, Model: m}
			if err := p.Validate(); err != nil {
				return nil, err
			}
			cands[ai*len(sf.models)+mi] = candState{p: p}
		}
	}

	if perm == nil {
		perm = make([]int32, sf.grouped.NumRows())
		for i := range perm {
			perm[i] = int32(i)
		}
	}
	sf.fragEnds = FragmentEnds(sf.fragEnds, fCodes, perm)
	ff := sf.fit
	start := int32(0)
	for _, end := range sf.fragEnds {
		ff.Fit(sf.grouped, fIdx, vIdx, sf.ys, perm[start:end], nil, tm)
		start = end
		var fragKey string
		for i := range cands {
			cs := &cands[i]
			if ff.Supported[i/len(sf.models)] {
				cs.numSupp++
			}
			lm := ff.Locals[i]
			if lm == nil {
				continue
			}
			if fragKey == "" {
				sf.keyBuf = ff.Frag.AppendKey(sf.keyBuf[:0])
				fragKey = string(sf.keyBuf)
			}
			if cs.mined == nil {
				cs.mined = &Mined{Pattern: cs.p, Locals: make(map[string]*LocalModel)}
			}
			cs.mined.AddLocal(fragKey, lm)
		}
	}

	var out []*Mined
	for i := range cands {
		cs := &cands[i]
		if cs.mined == nil {
			continue
		}
		conf, ok := ff.th.HoldsGlobally(len(cs.mined.Locals), cs.numSupp)
		if !ok {
			continue
		}
		cs.mined.NumFragments = len(sf.fragEnds)
		cs.mined.NumSupported = cs.numSupp
		cs.mined.Confidence = conf
		out = append(out, cs.mined)
	}
	return out, nil
}

// FragmentEnds computes, into ends[:0], the exclusive end of every
// fragment of the scan order perm, in order: a row starts a new fragment
// where any F column's dictionary code (fCodes, indexed by row) differs
// from the previous row's. Codes are value.Equal classes, so fragments
// are exactly the runs of equal F values.
func FragmentEnds(ends []int32, fCodes [][]int32, perm []int32) []int32 {
	ends = ends[:0]
	n := len(perm)
	if n == 0 {
		return ends
	}
	for r := 1; r < n; r++ {
		pa, pb := perm[r-1], perm[r]
		for _, c := range fCodes {
			if c[pa] != c[pb] {
				ends = append(ends, int32(r))
				break
			}
		}
	}
	return append(ends, int32(n))
}

// Obs is one flat observation column over a grouped table's rows: per
// row, the value's float64 payload and whether it is numeric — the
// engine.Col F64/Num pair, or a copy a caller keeps current itself.
type Obs struct {
	F  []float64
	OK []bool
}

// FragFit is the one fragment fit of every miner: it evaluates each
// (aggregate, model) candidate of an (F, V) split on one fragment,
// applying the local gates of Definition 3 (local support δ over a
// numeric aggregate, numeric predictors for Lin, goodness of fit θ).
// Observations are folded in the order of the fragment's rows, through
// ConstStats and FitLinMoments (FitLinInto past regress.MaxMomentD
// predictors), so any two callers that present a fragment
// in the same order get bitwise the same local models. SharedFitter
// calls it per fragment of a sorted permutation; mining.Maintainer calls
// it on the fragments it builds and on those an append dirties, and
// calls FitCounts on the dirty fragments whose count statistics it
// keeps itself.
//
// A FragFit is not safe for concurrent use.
type FragFit struct {
	models []regress.ModelType
	th     Thresholds
	chi    regress.ChiGate // θ's χ² verdict
	hasLin bool

	// Supported reports, per aggregate, whether the last fragment met
	// the local support gate.
	Supported []bool
	// Locals holds, per candidate (aggregate ai, model mi at
	// ai*len(models)+mi), the local model of the last fragment, or nil
	// where the candidate does not hold locally.
	Locals []*LocalModel
	// Frag is the last fragment's F values (the order of fIdx), shared
	// by its Locals; nil when none holds.
	Frag value.Tuple
	// LinFree reports whether no Lin candidate could hold on the last
	// fragment, whatever its observations: there is no Lin model, or a
	// predictor value is not numeric.
	LinFree bool

	// Scratch reused across fragments.
	n, d     int         // the last Fit's rows and predictors
	prevFrag value.Tuple // the caller's Frag for the fragment, or nil
	ys       []float64
	xs       []float64
	xc       []*engine.Col
	stats    regress.ConstStats
	lin      regress.LinScratch
	mo       regress.LinMoments // the last Lin fit's moments
	moOK     bool               // mo is the last aggregate's fit's
}

// NewFragFit returns a fitter for nAggs aggregates under the given
// models and thresholds (which the caller has validated).
func NewFragFit(nAggs int, models []regress.ModelType, th Thresholds) *FragFit {
	ff := &FragFit{
		models:    models,
		th:        th,
		chi:       regress.NewChiGate(th.Theta),
		Supported: make([]bool, nAggs),
		Locals:    make([]*LocalModel, nAggs*len(models)),
	}
	for _, m := range models {
		if m == regress.Lin {
			ff.hasLin = true
		}
	}
	return ff
}

// Fit evaluates every candidate on the fragment whose groups are rows of
// keys, in observation order: fIdx and vIdx are keys' partition and
// predictor columns, ys[ai] is aggregate ai's observation column over
// the same rows. Results land in Supported, Locals, Frag and LinFree,
// and Stats holds the last aggregate's statistics. frag, when non-nil,
// is the Frag an earlier fit of the same fragment with the same first
// row returned; holding models share it instead of a new tuple. tm,
// when non-nil, accrues the model-fitting time.
func (ff *FragFit) Fit(keys *engine.Table, fIdx, vIdx []int, ys []Obs, rows []int32, frag value.Tuple, tm *Timers) {
	n, d := len(rows), len(vIdx)
	ff.Frag, ff.prevFrag, ff.n, ff.d = nil, frag, n, d

	// Gather the fragment's predictor matrix once (flat, stride d) when
	// any Lin candidate will need it.
	numericX := true
	xs := ff.xs[:0]
	if ff.hasLin {
		xc := ff.xc[:0]
		for _, ci := range vIdx {
			xc = append(xc, keys.Col(ci))
		}
		ff.xc = xc
	gather:
		for _, r := range rows {
			for _, c := range xc {
				if !c.Num[r] {
					numericX = false
					break gather
				}
				xs = append(xs, c.F64[r])
			}
		}
		ff.xs = xs
	}
	ff.LinFree = !ff.hasLin || !numericX

	nm := len(ff.models)
	for ai, y := range ys {
		// One pass per aggregate: numeric check, sufficient statistics
		// for Const, and the observation vector for Lin.
		numericY := true
		ff.stats.Reset()
		obs := ff.ys[:0]
		for _, r := range rows {
			if !y.OK[r] {
				numericY = false
				break
			}
			ff.stats.Add(y.F[r])
			obs = append(obs, y.F[r])
		}
		ff.ys, ff.moOK = obs, false
		supp := numericY && n >= ff.th.LocalSupport
		ff.Supported[ai] = supp
		for mi, m := range ff.models {
			var lm *LocalModel
			if supp && (m != regress.Lin || numericX) {
				lm = ff.fitOne(m, keys, fIdx, xs, d, obs, rows[0], tm)
			}
			ff.Locals[ai*nm+mi] = lm
		}
	}
}

// FitCounts evaluates every candidate on a fragment from the statistics
// s of its observations instead of its rows, for a caller that keeps
// them itself: every aggregate is count(*), so each observes s, and no
// Lin candidate can hold (LinFree, or LinImpossible from the fragment's
// kept moments). first is the fragment's first row
// and frag is as for Fit. The gates and the Const fit are Fit's, so
// when s equals the statistics Fit would accumulate — exact integer
// sums are, in any order — the results are bitwise Fit's.
func (ff *FragFit) FitCounts(keys *engine.Table, fIdx []int, s regress.ConstStats, first int32, frag value.Tuple) {
	ff.Frag, ff.prevFrag, ff.LinFree = nil, frag, true
	ff.stats = s
	supp := s.N >= ff.th.LocalSupport
	nm := len(ff.models)
	for ai := range ff.Supported {
		ff.Supported[ai] = supp
		for mi, m := range ff.models {
			var lm *LocalModel
			if supp && m != regress.Lin {
				lm = ff.fitOne(m, keys, fIdx, nil, 0, nil, first, nil)
			}
			ff.Locals[ai*nm+mi] = lm
		}
	}
}

// LinImpossible reports, from the Lin moments mo of a fragment whose
// observations are counts (integers, every sum exact: regress.LinMoments),
// whether no Lin candidate can hold on it: it is below local support,
// its normal equations are singular, or the screen proves its R² below
// θ (regress.LinMoments.BelowTheta). β is solved as Fit's Lin fit
// solves it, so singular means exactly what it means there. When it
// answers false, a Lin model may hold and the caller walks (Fit).
func (ff *FragFit) LinImpossible(mo *regress.LinMoments) bool {
	if !ff.hasLin || int(mo.XtX[0]) < ff.th.LocalSupport {
		return true
	}
	if ff.lin.SolveMoments(mo) != nil {
		return true
	}
	return mo.BelowTheta(ff.lin.Beta(), ff.th.Theta)
}

// Moments sets mo to the Lin moments of the last Fit's fragment over
// its last aggregate — those its Lin fit accumulated, else from the
// observations Fit gathered — and reports whether they are exact: a
// Lin candidate could hold (not LinFree), the fragment has at most
// regress.MaxMomentD predictors, and every predictor value is an
// integer of magnitude at most maxAbsX.
func (ff *FragFit) Moments(mo *regress.LinMoments, maxAbsX float64) bool {
	n, d := len(ff.ys), ff.d
	if ff.LinFree || n != ff.n || d > regress.MaxMomentD {
		return false
	}
	for _, x := range ff.xs {
		if x != math.Trunc(x) || math.Abs(x) > maxAbsX {
			return false
		}
	}
	if ff.moOK {
		*mo = ff.mo
	} else {
		mo.Accumulate(ff.xs, d, ff.ys)
	}
	return true
}

// Stats returns the statistics the last Fit accumulated for its last
// aggregate (complete when that aggregate was numeric on every row), or
// those the last FitCounts was given.
func (ff *FragFit) Stats() regress.ConstStats { return ff.stats }

// fitOne fits one model on the gathered observations and returns its
// local model, or nil when the fit fails or falls below θ. ff.stats
// holds the observations' statistics; ys is needed only by Lin. first is
// the fragment's first row, whose F values become Frag unless the
// caller passed its own.
func (ff *FragFit) fitOne(m regress.ModelType, keys *engine.Table, fIdx []int,
	xs []float64, d int, ys []float64, first int32, tm *Timers) *LocalModel {

	var t0 time.Time
	if tm != nil {
		t0 = time.Now()
	}
	// Fit without materializing a Model: most fragments fail the GoF
	// threshold, and the rejects must not allocate.
	isLin := m == regress.Lin
	var gof, cmean float64
	var err error
	if isLin {
		if d <= regress.MaxMomentD {
			gof, err = regress.FitLinMoments(xs[:len(ys)*d], d, ys, &ff.mo, &ff.lin)
			ff.moOK = true
		} else {
			gof, err = regress.FitLinInto(xs[:len(ys)*d], d, ys, &ff.lin)
		}
	} else {
		cmean, gof, err = ff.stats.FitParamsGate(ff.chi)
	}
	if tm != nil {
		tm.Regression += time.Since(t0)
	}
	if err != nil || gof < ff.th.Theta {
		return nil // singular fit etc., or a poor one: no local hold
	}
	var model regress.Model
	if isLin {
		model = ff.lin.Model(gof)
	} else {
		model = regress.NewConst(cmean, gof)
	}
	if ff.Frag == nil {
		ff.Frag = ff.prevFrag
	}
	if ff.Frag == nil {
		ff.Frag = make(value.Tuple, len(fIdx))
		for i, ci := range fIdx {
			ff.Frag[i] = keys.Col(ci).Value(int(first))
		}
	}
	lm := &LocalModel{Frag: ff.Frag, Model: model, Support: ff.stats.N}
	if isLin {
		for i, y := range ys {
			lm.widen(y - model.Predict(xs[i*d:(i+1)*d]))
		}
	} else {
		// For a Const model, max(y − mean) = max(y) − mean and
		// min(y − mean) = min(y) − mean exactly (subtraction is
		// monotone), so the extremes come from the statistics.
		mean := model.Predict(nil)
		lm.widen(ff.stats.Max - mean)
		lm.widen(ff.stats.Min - mean)
	}
	return lm
}

// widen folds one deviation (observed − predicted) into the local
// model's extremes. Strict comparisons keep a NaN or −0 deviation out.
func (lm *LocalModel) widen(dev float64) {
	if dev > lm.MaxPosDev {
		lm.MaxPosDev = dev
	}
	if dev < lm.MaxNegDev {
		lm.MaxNegDev = dev
	}
}

// AddLocal records the local model of the fragment keyed fragKey and
// widens the pattern's deviation extremes by it.
func (m *Mined) AddLocal(fragKey string, lm *LocalModel) {
	m.Locals[fragKey] = lm
	if lm.MaxPosDev > m.MaxPosDev {
		m.MaxPosDev = lm.MaxPosDev
	}
	if lm.MaxNegDev < m.MaxNegDev {
		m.MaxNegDev = lm.MaxNegDev
	}
}
