package regress

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"cape/internal/stats"
)

// screenDesign draws n observations of an integer design with d
// predictors: x within span of an offset (|x| ≤ 2¹³), y a count of at
// most 4·span plus, for a trend of strength trend, a multiple of the
// first predictor. collinear repeats the first predictor in the second.
func screenDesign(rng *rand.Rand, n, d, span int, trend float64, collinear bool) (x, ys []float64) {
	off := rng.Intn(2*8192-2*span+1) - (8192 - span)
	x = make([]float64, n*d)
	ys = make([]float64, n)
	for r := 0; r < n; r++ {
		for j := 0; j < d; j++ {
			x[r*d+j] = float64(off + rng.Intn(2*span+1) - span)
		}
		if collinear && d == 2 {
			x[r*d+1] = x[r*d]
		}
		y := float64(rng.Intn(4*span + 1))
		y += math.Round(trend * (x[r*d] - float64(off)))
		ys[r] = math.Max(y, 0)
	}
	return x, ys
}

// checkScreen pins the screen on one design: moments accumulated in any
// order are bit-equal, FitLinMoments is FitLinInto bit for bit, β from
// the moments is bit-equal to FitLinInto's,
// the errors agree, and no θ at or below FitLinInto's GoF is excluded.
// It returns that GoF (NaN on an error) and whether the screen excluded
// theta.
func checkScreen(t *testing.T, x []float64, d int, ys []float64, theta float64) (gof float64, excluded bool) {
	t.Helper()
	var walk, mom LinScratch
	gof, werr := FitLinInto(x, d, ys, &walk)

	var mo, rev LinMoments
	mo.Accumulate(x, d, ys)
	n := len(ys)
	rx, ry := make([]float64, 0, len(x)), make([]float64, 0, n)
	for r := n - 1; r >= 0; r-- {
		rx = append(rx, x[r*d:r*d+d]...)
		ry = append(ry, ys[r])
	}
	rev.Accumulate(rx, d, ry)
	if mo != rev {
		t.Fatalf("moments depend on order: %+v vs %+v", mo, rev)
	}

	var kept LinMoments
	var fit LinScratch
	kgof, kerr := FitLinMoments(x, d, ys, &kept, &fit)
	if kept != mo || kerr != werr || werr == nil && (math.Float64bits(kgof) != math.Float64bits(gof) || !slices.Equal(fit.Beta(), walk.Beta())) {
		t.Fatalf("FitLinMoments = %v, %v, β %v, moments %+v; FitLinInto = %v, %v, β %v, moments %+v",
			kgof, kerr, fit.Beta(), kept, gof, werr, walk.Beta(), mo)
	}

	merr := mom.SolveMoments(&mo)
	if werr != merr {
		t.Fatalf("FitLinInto error %v, SolveMoments error %v", werr, merr)
	}
	if werr != nil {
		return math.NaN(), false
	}
	wb, mb := walk.Beta(), mom.Beta()
	for i := range wb {
		if math.Float64bits(wb[i]) != math.Float64bits(mb[i]) {
			t.Fatalf("β from moments %v, FitLinInto's %v", mb, wb)
		}
	}
	excluded = mo.BelowTheta(mb, theta)
	if excluded && gof >= theta {
		t.Fatalf("screen excludes θ=%v, but FitLinInto's GoF is %v (n=%d, d=%d, β=%v)", theta, gof, n, d, mb)
	}
	if mo.BelowTheta(mb, gof) {
		t.Fatalf("screen excludes θ = FitLinInto's own GoF %v", gof)
	}
	return gof, excluded
}

// TestLinScreen runs the screen over random integer designs — one and
// two predictors, narrow and wide spans, offsets up to ±2¹³, with and
// without a trend — over singular ones (a constant predictor, a
// collinear pair, fewer observations than coefficients), and at θ
// straddling each fit's own GoF. Away from θ it must exclude: every fit
// whose GoF is below θ − 10⁻⁶ over a design spread around its offset.
func TestLinScreen(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	excluded, far, singular := 0, 0, 0
	for i := 0; i < 4000; i++ {
		d := 1 + rng.Intn(2)
		n := 1 + rng.Intn(60)
		span := []int{0, 1, 3, 12, 200, 4000}[rng.Intn(6)]
		trend := []float64{0, 0.5, 3}[rng.Intn(3)]
		x, ys := screenDesign(rng, n, d, span, trend, rng.Intn(8) == 0)
		theta := []float64{0.01, 0.1, 0.25, 0.5, 0.9, 1}[rng.Intn(6)]
		gof, ex := checkScreen(t, x, d, ys, theta)
		if math.IsNaN(gof) {
			singular++
			continue
		}
		for _, th := range []float64{gof, math.Nextafter(gof, 2), math.Nextafter(gof, -1), gof + 1e-12, gof - 1e-12} {
			if th > 0 && th <= 1 {
				checkScreen(t, x, d, ys, th)
			}
		}
		if gof < theta-1e-6 && span >= 3 {
			far++
			if ex {
				excluded++
			}
		}
	}
	if singular == 0 || far < 1000 {
		t.Fatalf("%d singular designs, %d fits far below θ; the sweep is vacuous", singular, far)
	}
	if excluded != far {
		t.Errorf("screen excluded %d of %d fits far below θ", excluded, far)
	}
}

// FuzzLinScreen checks the screen's three properties on fuzzed integer
// designs: β bit-equal, errors equal, no hold excluded.
func FuzzLinScreen(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(1), uint16(12), uint8(0), uint32(0))
	f.Add(int64(2), uint8(3), uint8(2), uint16(0), uint8(1), uint32(1<<31))
	f.Add(int64(3), uint8(50), uint8(2), uint16(8000), uint8(2), uint32(1<<30))
	f.Fuzz(func(t *testing.T, seed int64, n, d uint8, span uint16, trend uint8, theta uint32) {
		rng := rand.New(rand.NewSource(seed))
		x, ys := screenDesign(rng, 1+int(n%80), 1+int(d%2), int(span%8193), float64(trend%8)/2, trend&8 != 0)
		th := float64(theta) / (1 << 32)
		gof, _ := checkScreen(t, x, 1+int(d%2), ys, th)
		if !math.IsNaN(gof) && gof > 0 {
			checkScreen(t, x, 1+int(d%2), ys, math.Nextafter(gof, -1))
		}
	})
}

// chernoffCrit returns the χ² at which ChiGate.Below's Chernoff exponent
// (k/2)(r − 1 − ln r), r = x/k, reaches ln(2/θ): the per-(dof, θ)
// critical value past which the p-value is skipped.
func chernoffCrit(dof, theta float64) float64 {
	lo, hi := dof, 2*dof+64*math.Log(2/theta)+64
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		d := mid/dof - 1
		if dof/2*(d-math.Log1p(d)) > math.Log(2/theta) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// TestChiVerdict pins the χ² verdict: over dof 1..4096 and χ² swept
// from half θ's exact critical value (ChiSquareSF = θ) to twice the
// Chernoff critical value past which the p-value is skipped — the margin
// between the two — a skip happens only where ChiSquareSF is below θ,
// and the skip starts at the Chernoff critical value.
func TestChiVerdict(t *testing.T) {
	for _, theta := range []float64{0.01, 0.1, 0.25, 0.5, 0.9, 1} {
		g, skips := NewChiGate(theta), 0
		for dof := 1; dof <= 4096; dof++ {
			k := float64(dof)
			crit := chernoffCrit(k, theta)
			if g.Below(crit*(1-1e-12), k) || !g.Below(crit*(1+1e-12), k) {
				t.Fatalf("θ=%v dof=%d: skip does not start at the Chernoff critical value %v", theta, dof, crit)
			}
			exact := exactCrit(t, k, theta)
			lo, hi := exact/2, 2*crit
			for i := 0; i <= 24; i++ {
				chi2 := lo + (hi-lo)*float64(i)/24
				p, err := stats.ChiSquareSF(chi2, k)
				if g.Below(chi2, k) {
					skips++
					if err == nil && p >= theta {
						t.Fatalf("θ=%v dof=%d χ²=%v: skipped, but ChiSquareSF = %v", theta, dof, chi2, p)
					}
				}
			}
		}
		if skips == 0 {
			t.Fatalf("θ=%v: no χ² of the sweep is skipped; the pin is vacuous", theta)
		}
	}
}

// exactCrit bisects ChiSquareSF(x, k) = θ.
func exactCrit(t *testing.T, k, theta float64) float64 {
	lo, hi := 0.0, chernoffCrit(k, theta)
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		p, err := stats.ChiSquareSF(mid, k)
		if err != nil {
			t.Fatal(err)
		}
		if p >= theta {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// TestFitParamsGate: over random count statistics, FitParamsGate's
// verdict (GoF ≥ θ) is FitParams's, and every GoF it keeps is
// FitParams's bit for bit.
func TestFitParamsGate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	skipped := 0
	for i := 0; i < 20000; i++ {
		var s ConstStats
		n := 1 + rng.Intn(300)
		mean := float64(1 + rng.Intn(50))
		spread := []float64{0, 0.5, 1, 2, 10}[rng.Intn(5)]
		for j := 0; j < n; j++ {
			s.Add(math.Max(0, math.Round(mean+spread*math.Sqrt(mean)*rng.NormFloat64())))
		}
		theta := []float64{0.01, 0.1, 0.25, 0.5, 0.9, 1}[rng.Intn(6)]
		m1, g1, e1 := s.FitParams()
		m2, g2, e2 := s.FitParamsGate(NewChiGate(theta))
		if e2 != nil && e1 == nil || m1 != m2 {
			t.Fatalf("FitParamsGate = (%v, %v, %v), FitParams = (%v, %v, %v)", m2, g2, e2, m1, g1, e1)
		}
		if (e1 == nil && g1 >= theta) != (e2 == nil && g2 >= theta) {
			t.Fatalf("θ=%v: FitParamsGate GoF %v (%v), FitParams %v (%v): verdicts differ", theta, g2, e2, g1, e1)
		}
		if g2 >= theta && math.Float64bits(g1) != math.Float64bits(g2) {
			t.Fatalf("kept GoF %v, FitParams %v", g2, g1)
		}
		if g1 != g2 {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("no p-value was skipped; the check is vacuous")
	}
}

// TestUpDn: up and dn are math.Nextafter toward ±Inf on finite values.
func TestUpDn(t *testing.T) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1, -1, 0x1p-1074, -0x1p-1074, math.MaxFloat64, 3.5e-300, -7e20, 1 - 0x1p-53} {
		if got, want := up(x), math.Nextafter(x, math.Inf(1)); got != want {
			t.Errorf("up(%v) = %v, want %v", x, got, want)
		}
		if got, want := dn(x), math.Nextafter(x, math.Inf(-1)); got != want {
			t.Errorf("dn(%v) = %v, want %v", x, got, want)
		}
	}
}
