package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer and the "tail" is a handful of outliers.
const tailBeyond = 10

// tailPercentiles are the candidates for the reported tail, highest
// first.
var tailPercentiles = []float64{0.99, 0.95, 0.90}

// pickTail returns the highest of p99/p95/p90 that has at least
// tailBeyond samples beyond it in a sample of n, or 0.5 when even p90
// does not (the median is then all the sample supports).
func pickTail(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p) >= tailBeyond-1e-9 {
			return p
		}
	}
	return 0.5
}

// percentile reads the p-quantile of an ascending sample by the
// nearest-rank rule; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median — the driver's noise measure. Quartiles
// follow Python's statistics.quantiles(values, n=4) (exclusive method),
// so a spread computed here reads the same as the driver's.
func quartileSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	med := median(s)
	if n < 2 || med == 0 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / math.Abs(med)
}
