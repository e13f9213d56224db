package regress

import "math"

// MaxMomentD is the most predictors LinMoments holds.
const MaxMomentD = 2

// LinMoments are the sufficient statistics of a Lin fit with an
// intercept over D ≤ MaxMomentD predictors: the normal equations XᵀX
// (p×p row-major, p = D+1, symmetric, XᵀX[0] = n) and Xᵀy (Xᵀy[0] =
// Σy), plus Σy². A caller that keeps them current as observations
// arrive can solve the fit without the observations (SolveMoments) and
// rule out a hold (BelowTheta).
//
// Over integer observations whose every partial sum stays below 2⁵³ in
// magnitude, each entry is an exact integer sum in any order: kept
// moments then equal what FitLinInto accumulates over the same
// observations, bit for bit, so SolveMoments leaves its β and its
// ErrSingular.
type LinMoments struct {
	D     int
	XtX   [(MaxMomentD + 1) * (MaxMomentD + 1)]float64
	XtY   [MaxMomentD + 1]float64
	SumSq float64
}

// Accumulate sets mo to the moments of the observations (x, ys), x
// row-major with stride d ≤ MaxMomentD, through FitLinInto's own
// accumulation.
func (mo *LinMoments) Accumulate(x []float64, d int, ys []float64) {
	*mo = LinMoments{D: d}
	p := d + 1
	accumulate(mo.XtX[:p*p], mo.XtY[:p], x, d, ys)
	for _, y := range ys {
		mo.SumSq += y * y
	}
}

// SolveMoments solves the normal equations of mo, leaving the
// coefficients in s as FitLinInto does (Beta, Model) and returning
// ErrSingular where FitLinInto would over observations with these
// moments.
func (s *LinScratch) SolveMoments(mo *LinMoments) error {
	p := mo.D + 1
	xtx, xty := s.grow(p)
	copy(xtx, mo.XtX[:p*p])
	copy(xty, mo.XtY[:p])
	_, err := s.solve(xtx, xty, p)
	return err
}

// Beta returns the coefficients of the last successful solve, valid
// until the next one.
func (s *LinScratch) Beta() []float64 { return s.beta[:s.betaN] }

// u is the unit roundoff of float64.
const u = 0x1p-53

// BelowTheta reports whether FitLinInto, over any observations whose
// moments are mo and whose Σy it sums exactly, returns an R² below
// theta once it has solved β: then no walk is needed to know that the
// fit fails θ. It answers false whenever it cannot prove that — SStot
// may be 0, R² lies within the error bound of θ, theta ≤ 0, or a value
// is not finite — and the caller walks.
//
// The walk computes ssRes = Σ(y − x·β)² by a residual pass and ssTot =
// Σ(y − ȳ)² by stats.SumSquaredDev, each rounded. The screen evaluates
// both from the moments instead and widens each by a bound on what
// separates the two evaluations, from n, Σy², Σx_j² and |β| (DESIGN.md
// §11):
//
//	ssRes ≥ (1−γₙ)(1−u)²·(√SSR − γ_{D+1}·‖B‖)², ‖B‖ = |β₀|√n + Σⱼ|βⱼ|√Σx_j²
//	ssTot ≤ (1+γₙ)(1+u)²·(√SST + u·√Σy²)²
//
// with SSR = Σy² − 2βᵀXᵀy + βᵀXᵀXβ and SST = Σy² − (Σy)²/n exact reals,
// bracketed by the standard bound on a sum of products, and γₖ =
// k·u/(1−k·u). ssRes ≥ (1 − θ + 3u)·ssTot then forces the walk's
// Clamp01(1 − ssRes/ssTot) below θ. Every operation of the screen is
// rounded outward (up, dn), so the bounds it compares hold as computed.
func (mo *LinMoments) BelowTheta(beta []float64, theta float64) bool {
	if !(theta > 0) || len(beta) != mo.D+1 {
		return false
	}
	p := mo.D + 1
	n, sy, syy := mo.XtX[0], mo.XtY[0], mo.SumSq

	// SST, bracketed.
	q := sy * sy
	sstHi := up(syy - dn(dn(q)/n))
	sstLo := dn(syy - up(up(q)/n))
	// The walk's ssTot ≥ (1−γₙ)(1−u)²·(√SST − u·√Σy²)², positive when
	// this holds; otherwise SStot may be 0, and the walk decides.
	yNoise := up(u * up(math.Sqrt(syy)))
	if !(sstLo > 0) || !(dn(math.Sqrt(sstLo)) > yNoise) {
		return false
	}
	gn := gammaK(n)
	tot := up(up(math.Sqrt(sstHi)) + yNoise)
	ssTotHi := up(up(up(up(1+gn)*onePlusU2) * up(tot*tot)))

	// SSR from the moments: m terms, each a product of at most three
	// factors, summed in order, so |computed − SSR| ≤ γ_{m+1}·Σ|terms|.
	s, t := syy, syy
	for i := 0; i < p; i++ {
		c := 2 * beta[i] * mo.XtY[i]
		s -= c
		t += math.Abs(c)
		for j := 0; j < p; j++ {
			a := beta[i] * beta[j] * mo.XtX[i*p+j]
			s += a
			t += math.Abs(a)
		}
	}
	gm := gammaK(float64(1 + p + p*p + 1))
	// t is itself a computed sum of the |terms|: their exact sum is at
	// most t/(1−γ_{m+1}).
	errS := up(up(gm/dn(1-gm)) * t)
	ssr := dn(s - errS)
	if !(ssr > 0) {
		return false
	}
	// ‖B‖ bounds the rounding of every prediction β₀ + Σβⱼxⱼ.
	b := up(math.Abs(beta[0]) * up(math.Sqrt(n)))
	for j := 1; j < p; j++ {
		b = up(b + up(math.Abs(beta[j])*up(math.Sqrt(mo.XtX[j*p+j]))))
	}
	r := dn(dn(math.Sqrt(ssr)) - up(gammaK(float64(p))*b))
	if !(r > 0) {
		return false
	}
	ssResLo := dn(dn(dn(1-gn)*oneMinusU2) * dn(r*r))

	need := up(up(up(1-theta)+3*u) * ssTotHi)
	return ssResLo >= need && !math.IsInf(ssResLo, 0)
}

// (1+u)² and (1−u)², rounded outward.
var (
	onePlusU2  = up(up(1+2*u) + u*u)
	oneMinusU2 = dn(1 - 2*u)
)

// gammaK returns γₖ = k·u/(1−k·u), rounded up; +Inf when k·u ≥ 1/2.
func gammaK(k float64) float64 {
	ku := up(k * u)
	if !(ku < 0.5) {
		return math.Inf(1)
	}
	return up(ku / dn(1-ku))
}

// up and dn widen a rounded result by one ulp, outward: the exact
// result of the operation lies between them. They are math.Nextafter
// toward ±Inf, cheap enough to inline, except that they carry ±Inf to
// NaN, which every comparison of the screen reads as "walk".
func up(x float64) float64 {
	switch b := math.Float64bits(x); {
	case x > 0:
		return math.Float64frombits(b + 1)
	case x < 0:
		return math.Float64frombits(b - 1)
	case x == 0:
		return 0x1p-1074
	}
	return x
}

func dn(x float64) float64 { return -up(-x) }
