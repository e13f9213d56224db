package oracle

import (
	"slices"

	"cape/internal/regress"
	"cape/internal/value"
)

// MineOptions are the parameters of the ARP-mining problem (Section 4):
// the pattern space to enumerate and the four thresholds.
type MineOptions struct {
	// Attrs are the attributes F and V are drawn from.
	Attrs []string
	// Psi is ψ, the largest |F ∪ V| enumerated.
	Psi int
	// Funcs are the aggregate functions. Count is count(*); every other
	// function f gives f(A) for every Numeric column A outside F ∪ V.
	Funcs []Func
	// Models are the regression model types M.
	Models []regress.ModelType
	// Theta is θ, the least goodness of fit of a local model.
	Theta float64
	// LocalSupport is δ, the least number of points of a fragment.
	LocalSupport int
	// Lambda is λ, the least global confidence.
	Lambda float64
	// GlobalSupport is Δ, the least number of fragments a pattern holds
	// locally on.
	GlobalSupport int
	// Order returns the predictor attributes of the split (f, v) of the
	// grouping g — v in some sequence — by which a fragment's points are
	// ordered before the fit. The definitions leave that order open, but
	// a fit's floating-point sums depend on it, so the caller names it.
	Order func(g, f, v []string) []string
}

// MinedPattern is a pattern [F] : V ~M~> agg(A) that holds globally
// (Definition 4), with every local model it holds under.
type MinedPattern struct {
	// F and V are sorted by name.
	F, V  []string
	Agg   Agg
	Model regress.ModelType
	// Locals maps a fragment's F values (aligned with F) by Key to the
	// local model of the pattern on that fragment (Definition 3).
	Locals map[string]LocalModel
	// Fragments is |frag(R, P)|; Supported is |frag_supp|, the fragments
	// with at least δ points and a numeric aggregate.
	Fragments, Supported int
	// Confidence is |frag_good| / |frag_supp|.
	Confidence float64
	// MaxPosDev and MaxNegDev are the extremes of the local models'.
	MaxPosDev, MaxNegDev float64
}

// LocalModel is a pattern's fit on one fragment f.
type LocalModel struct {
	// Frag is f, as the fragment's first point carries it.
	Frag value.Tuple
	// Model is the fit over the fragment's points.
	Model regress.Model
	// Support is the number of the fragment's points.
	Support int
	// MaxPosDev and MaxNegDev are the largest positive and the most
	// negative deviation observed − predicted over the points, 0 when no
	// point deviates that way.
	MaxPosDev, MaxNegDev float64
}

// Mine solves the ARP-mining problem over the relation whose columns
// are named cols, literally. For every grouping G ⊆ Attrs with
// 2 ≤ |G| ≤ ψ, every split of G into non-empty F and V (Definition 2),
// every aggregate agg(A) with A ∉ G and every model type M, it computes
// γ_{G, agg(A)}(R) and forms each fragment f ∈ π_F of it by σ_{F=f}.
// The fragment's groups are the points (V values, aggregate value) of
// its local regression (Definition 3): the fragment is supported when
// every aggregate value is numeric and there are at least δ points, and
// the pattern holds locally on it when, moreover, M fits the points —
// Lin needs numeric V values — with goodness of fit at least θ. The
// pattern holds globally (Definition 4) when it holds locally on at
// least Δ fragments and on at least a λ share of the supported ones.
// numeric marks the columns an aggregate other than count may take as
// its argument. Patterns come in enumeration order.
func Mine(cols []string, numeric []bool, rows []value.Tuple, opt MineOptions) []MinedPattern {
	var out []MinedPattern
	for _, g := range subsets(opt.Attrs, 2, opt.Psi) {
		for _, f := range subsets(g, 1, len(g)-1) {
			var v []string
			for _, a := range g {
				if !slices.Contains(f, a) {
					v = append(v, a)
				}
			}
			for _, agg := range aggregates(cols, numeric, g, opt.Funcs) {
				for _, m := range opt.Models {
					if p, ok := minePattern(cols, rows, g, f, v, agg, m, opt); ok {
						out = append(out, p)
					}
				}
			}
		}
	}
	return out
}

// minePattern evaluates one candidate (F, V, agg, M) of the grouping g.
func minePattern(cols []string, rows []value.Tuple, g, f, v []string, agg Agg, m regress.ModelType,
	opt MineOptions) (MinedPattern, bool) {
	at := func(attrs []string) []int {
		idx := make([]int, len(attrs))
		for i, a := range attrs {
			idx[i] = slices.Index(g, a)
		}
		return idx
	}
	p := MinedPattern{
		F: slices.Sorted(slices.Values(f)), V: slices.Sorted(slices.Values(v)),
		Agg: agg, Model: m, Locals: map[string]LocalModel{},
	}
	gIdx := make([]int, len(g))
	for i, a := range g {
		gIdx[i] = slices.Index(cols, a)
	}
	// γ_{G, agg(A)}(R): the key columns in g's order, then the aggregate.
	grouped := GroupBy(rows, gIdx, []Agg{agg})
	fIdx, vIdx, seq, y := at(p.F), at(p.V), at(opt.Order(g, f, v)), len(g)
	for _, frag := range DistinctProject(grouped, fIdx) {
		p.Fragments++
		points := SelectEq(grouped, fIdx, frag)
		slices.SortStableFunc(points, func(a, b value.Tuple) int {
			for _, c := range seq {
				if d := value.Compare(a[c], b[c]); d != 0 {
					return d
				}
			}
			return 0
		})
		ys := make([]float64, len(points))
		xs := make([][]float64, len(points))
		numY, numX := true, true
		for i, pt := range points {
			var ok bool
			if ys[i], ok = pt[y].AsFloat(); !ok {
				numY = false
			}
			if m == regress.Lin {
				xs[i] = make([]float64, len(vIdx))
				for j, c := range vIdx {
					if xs[i][j], ok = pt[c].AsFloat(); !ok {
						numX = false
					}
				}
			}
		}
		if !numY || len(points) < opt.LocalSupport {
			continue // not supported
		}
		p.Supported++
		if !numX {
			continue
		}
		model, err := regress.Fit(m, xs, ys)
		if err != nil || model.GoF() < opt.Theta {
			continue
		}
		lm := LocalModel{Frag: project(points[0], fIdx), Model: model, Support: len(points)}
		for i := range points {
			dev := ys[i] - model.Predict(xs[i])
			lm.MaxPosDev, lm.MaxNegDev = widen(lm.MaxPosDev, lm.MaxNegDev, dev)
		}
		p.Locals[lm.Frag.Key()] = lm
		p.MaxPosDev, p.MaxNegDev = widen(p.MaxPosDev, p.MaxNegDev, lm.MaxPosDev)
		p.MaxPosDev, p.MaxNegDev = widen(p.MaxPosDev, p.MaxNegDev, lm.MaxNegDev)
	}
	good := len(p.Locals)
	if good == 0 || good < opt.GlobalSupport {
		return p, false
	}
	p.Confidence = float64(good) / float64(p.Supported)
	return p, p.Confidence >= opt.Lambda
}

// widen folds dev into the extremes (hi, lo). Strict comparisons keep a
// NaN or −0 deviation out.
func widen(hi, lo, dev float64) (float64, float64) {
	if dev > hi {
		hi = dev
	}
	if dev < lo {
		lo = dev
	}
	return hi, lo
}

// aggregates lists the aggregates a pattern over the grouping g may
// carry: count(*) for Count, and f(A) for every other function f and
// every numeric column A outside g, in column order.
func aggregates(cols []string, numeric []bool, g []string, funcs []Func) []Agg {
	var out []Agg
	for _, fn := range funcs {
		if fn == Count {
			out = append(out, Agg{Func: Count, Arg: -1})
			continue
		}
		for c, name := range cols {
			if numeric[c] && !slices.Contains(g, name) {
				out = append(out, Agg{Func: fn, Arg: c})
			}
		}
	}
	return out
}

// subsets lists the subsets S of attrs with lo ≤ |S| ≤ hi, each
// keeping attrs' order.
func subsets(attrs []string, lo, hi int) [][]string {
	var out [][]string
	for mask := 1; mask < 1<<len(attrs); mask++ {
		var s []string
		for i, a := range attrs {
			if mask&(1<<i) != 0 {
				s = append(s, a)
			}
		}
		if lo <= len(s) && len(s) <= hi {
			out = append(out, s)
		}
	}
	return out
}
