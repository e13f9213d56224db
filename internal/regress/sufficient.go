package regress

import (
	"math"

	"cape/internal/stats"
)

// ConstStats accumulates the sufficient statistics of a constant fit in
// one pass: (n, Σy, Σy², min, max). A Const model and its chi-square
// goodness-of-fit are derivable from these five numbers alone, so the
// mining hot path never materializes an observation slice — or the dummy
// predictor matrix the generic Fit API requires — for Const candidates.
type ConstStats struct {
	N          int
	Sum, SumSq float64
	Min, Max   float64
}

// Add folds one observation into the statistics. Observations must be
// added in dataset order so the accumulated Σy reproduces the mean of a
// slice-based fit bit for bit.
func (s *ConstStats) Add(y float64) {
	if s.N == 0 {
		s.Min, s.Max = y, y
	} else if y < s.Min {
		s.Min = y
	} else if y > s.Max {
		s.Max = y
	}
	s.N++
	s.Sum += y
	s.SumSq += y * y
}

// Reset clears the statistics for reuse.
func (s *ConstStats) Reset() { *s = ConstStats{} }

// FitParams computes the Const fit from the accumulated statistics
// without materializing a Model, so hot paths that discard most fits
// (goodness-of-fit below threshold) allocate nothing for the rejects.
// The mean is Σy/n; the fit is perfect exactly when min = max = mean
// (min = max alone is not enough: for a constant sample whose mean
// rounds away from the constant, the historical elementwise check
// y ≠ mean declared the fit imperfect, and this must too). Otherwise
// the Pearson statistic is expanded as χ² = (Σy² − 2·mean·Σy +
// n·mean²)/mean (clamped at 0 against catastrophic cancellation) and
// converted to a p-value with n−1 degrees of freedom, as in the
// slice-based fit.
func (s *ConstStats) FitParams() (mean, gof float64, err error) {
	return s.FitParamsGate(ChiGate{})
}

// FitParamsGate is FitParams for a caller that keeps only fits whose
// GoF reaches the gate's θ: a statistic the gate finds past θ's critical
// value returns GoF 0 without computing its p-value. Every other fit,
// and so every kept one, returns FitParams's GoF bit for bit.
func (s *ConstStats) FitParamsGate(g ChiGate) (mean, gof float64, err error) {
	if s.N == 0 {
		return 0, 0, ErrEmpty
	}
	mean = s.Sum / float64(s.N)
	if s.Min == s.Max && s.Min == mean {
		return mean, 1, nil
	}
	if mean <= 0 {
		return mean, 0, nil
	}
	chi2 := (s.SumSq - 2*mean*s.Sum + float64(s.N)*mean*mean) / mean
	if chi2 < 0 {
		chi2 = 0
	}
	dof := float64(s.N - 1)
	if dof < 1 {
		dof = 1
	}
	if g.Below(chi2, dof) {
		return mean, 0, nil
	}
	p, err := stats.ChiSquareSF(chi2, dof)
	if err != nil {
		return 0, 0, err
	}
	return mean, stats.Clamp01(p), nil
}

// ChiGate is the χ² verdict of a caller that keeps only Const fits whose
// GoF, the p-value, reaches θ. The zero gate skips nothing.
type ChiGate struct {
	lnBound float64 // ln(2/θ)
	on      bool
}

// NewChiGate returns the gate of theta; it skips nothing when theta ≤ 0.
func NewChiGate(theta float64) ChiGate {
	if !(theta > 0) {
		return ChiGate{}
	}
	return ChiGate{lnBound: math.Log(2 / theta), on: true}
}

// Below reports whether a χ² statistic chi2 with dof degrees of freedom
// is past θ's critical value by the margin: its Chernoff bound
// Pr[X ≥ x] ≤ exp(−(k/2)(r − 1 − ln r)), r = x/k > 1, is below θ/2.
// ChiSquareSF's relative error is far below the factor 2, so its
// p-value is then below θ. The exponent crosses ln(2/θ) at a per-(dof,
// θ) critical value; TestChiVerdict pins the verdict against
// ChiSquareSF around it. Since ln(1+d) ≤ d(2+d)/(2(1+d)) for d ≥ 0, the
// exponent is at least (k/2)·d²/(2(1+d)) with d = r − 1: a statistic far
// past the critical value is found so without a logarithm.
func (g ChiGate) Below(chi2, dof float64) bool {
	if !g.on || !(chi2 > dof) {
		return false
	}
	d, half := chi2/dof-1, dof/2
	if half*d*d/(2*(1+d)) > g.lnBound {
		return true
	}
	return half*(d-math.Log1p(d)) > g.lnBound
}

// Fit builds the Const model from the accumulated statistics (see
// FitParams for the arithmetic).
func (s *ConstStats) Fit() (Model, error) {
	mean, gof, err := s.FitParams()
	if err != nil {
		return nil, err
	}
	return &constModel{mean: mean, gof: gof}, nil
}

// NewConst materializes the Const model described by FitParams output.
func NewConst(mean, gof float64) Model {
	return &constModel{mean: mean, gof: gof}
}

// LinScratch holds the normal-equation buffers FitLinInto reuses across
// calls, so a mining run fitting thousands of fragments performs no
// per-fit matrix allocation. The zero value is ready to use.
type LinScratch struct {
	xtx, xty []float64
	beta     []float64 // solution of the latest FitLinInto call
	betaN    int
}

func (s *LinScratch) grow(p int) (xtx, xty []float64) {
	if cap(s.xtx) < p*p {
		s.xtx = make([]float64, p*p)
	}
	if cap(s.xty) < p {
		s.xty = make([]float64, p)
	}
	xtx, xty = s.xtx[:p*p], s.xty[:p]
	for i := range xtx {
		xtx[i] = 0
	}
	for i := range xty {
		xty[i] = 0
	}
	return xtx, xty
}

// FitLinInto fits ordinary least squares with an intercept over
// n = len(ys) observations whose predictor vectors are stored row-major
// in x with stride d (len(x) = n·d). It accumulates XᵀX and Xᵀy in a
// single pass over the flat buffer — no [][]float64 is ever built — and
// solves the normal equations by Gaussian elimination with partial
// pivoting, leaving the coefficients in scr (valid until the next call)
// and returning only the R² goodness of fit: nothing is allocated, so
// callers that reject most fits pay for a Model (scr.Model) only on the
// fits they keep. The arithmetic (accumulation order, pivoting, R²
// residual pass) is identical to the historical slice-of-slices
// implementation, so fits agree bit for bit. The solve is
// SolveMoments's: handed the same XᵀX and Xᵀy, both leave the same β.
func FitLinInto(x []float64, d int, ys []float64, scr *LinScratch) (gof float64, err error) {
	n := len(ys)
	if n == 0 {
		return 0, ErrEmpty
	}
	if d < 0 || len(x) != n*d {
		return 0, ErrShape
	}
	p := d + 1 // intercept + predictors

	xtx, xty := scr.grow(p)
	accumulate(xtx, xty, x, d, ys)
	beta, err := scr.solve(xtx, xty, p)
	if err != nil {
		return 0, err
	}
	return linGoF(x, d, ys, beta), nil
}

// FitLinMoments is FitLinInto over at most MaxMomentD predictors that
// accumulates the normal equations in mo, which keeps them: the same
// accumulation, solve and residual pass, so the GoF, β and error are
// FitLinInto's bit for bit.
func FitLinMoments(x []float64, d int, ys []float64, mo *LinMoments, scr *LinScratch) (gof float64, err error) {
	if len(ys) == 0 {
		return 0, ErrEmpty
	}
	if d < 0 || d > MaxMomentD || len(x) != len(ys)*d {
		return 0, ErrShape
	}
	mo.Accumulate(x, d, ys)
	if err := scr.SolveMoments(mo); err != nil {
		return 0, err
	}
	return linGoF(x, d, ys, scr.Beta()), nil
}

// linGoF returns R² of the fit beta over the observations (x, ys): a
// residual pass over the float β and stats.SumSquaredDev. The residual
// pass evaluates predictions through the same method the materialized
// model will use, so GoF and Predict agree bit for bit.
func linGoF(x []float64, d int, ys []float64, beta []float64) float64 {
	m := linearModel{beta: beta}
	var ssRes float64
	for r := range ys {
		e := ys[r] - m.Predict(x[r*d:r*d+d])
		ssRes += e * e
	}
	ssTot := stats.SumSquaredDev(ys)
	switch {
	case ssTot == 0 && ssRes <= 1e-18:
		return 1
	case ssTot == 0:
		return 0
	default:
		return stats.Clamp01(1 - ssRes/ssTot)
	}
}

// accumulate adds the observations (x, ys), x row-major with stride d,
// into the zeroed normal equations: the p×p matrix XᵀX (row-major, p =
// d+1, the intercept first) and the vector Xᵀy. It fills the upper
// triangle and mirrors it, so xtx is symmetric.
func accumulate(xtx, xty, x []float64, d int, ys []float64) {
	p := d + 1
	for r := range ys {
		row := x[r*d : r*d+d]
		y := ys[r]
		// Intercept row: xi[0] = 1, so products reduce to the raw values.
		xtx[0]++
		for j := 1; j < p; j++ {
			xtx[j] += row[j-1]
		}
		xty[0] += y
		for i := 1; i < p; i++ {
			xi := row[i-1]
			base := i * p
			for j := i; j < p; j++ {
				xtx[base+j] += xi * row[j-1]
			}
			xty[i] += xi * y
		}
	}
	for i := 1; i < p; i++ {
		for j := 0; j < i; j++ {
			xtx[i*p+j] = xtx[j*p+i]
		}
	}
}

// solve solves the normal equations xtx·β = xty (p coefficients; both
// are scratch and are overwritten) into the scratch's β, which it
// returns.
func (s *LinScratch) solve(xtx, xty []float64, p int) ([]float64, error) {
	if cap(s.beta) < p {
		s.beta = make([]float64, p)
	}
	beta := s.beta[:p]
	s.betaN = p
	return beta, solveFlat(xtx, xty, p, beta)
}

// Model materializes the solution of the most recent successful
// FitLinInto call as a linear Model with the given goodness of fit. The
// coefficients are copied out of the scratch.
func (s *LinScratch) Model(gof float64) Model {
	return &linearModel{beta: append([]float64(nil), s.beta[:s.betaN]...), gof: gof}
}

// FitLinFlat is FitLinInto plus materialization: it fits and returns the
// Model. scr may be nil; passing one reuses its buffers. The returned
// model retains no scratch memory.
func FitLinFlat(x []float64, d int, ys []float64, scr *LinScratch) (Model, error) {
	var local LinScratch
	if scr == nil {
		scr = &local
	}
	gof, err := FitLinInto(x, d, ys, scr)
	if err != nil {
		return nil, err
	}
	return scr.Model(gof), nil
}

// solveFlat solves the n×n system A·x = b where a is row-major, using
// Gaussian elimination with partial pivoting, writing the solution into
// x (length n). a and b are modified in place (they are scratch).
// Returns ErrSingular when a pivot is numerically zero (collinear
// predictors or fewer distinct points than coefficients).
func solveFlat(a []float64, b []float64, n int, x []float64) error {
	for col := 0; col < n; col++ {
		pivot := col
		maxAbs := math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(a[r*n+col]); abs > maxAbs {
				maxAbs, pivot = abs, r
			}
		}
		if maxAbs < 1e-12 {
			return ErrSingular
		}
		if pivot != col {
			pr, cr := a[pivot*n:pivot*n+n], a[col*n:col*n+n]
			for i := range cr {
				cr[i], pr[i] = pr[i], cr[i]
			}
			b[col], b[pivot] = b[pivot], b[col]
		}
		inv := 1 / a[col*n+col]
		for r := col + 1; r < n; r++ {
			factor := a[r*n+col] * inv
			if factor == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r*n+c] -= factor * a[col*n+c]
			}
			b[r] -= factor * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r*n+c] * x[c]
		}
		x[r] = sum / a[r*n+r]
	}
	return nil
}
