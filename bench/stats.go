package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the nearest-rank position (1-based) of the q-quantile among n
// samples; the epsilon keeps 0.9*100 from rounding up to 91.
func rank(n int, q float64) int {
	return max(1, int(math.Ceil(q*float64(n)-1e-9)))
}

// quantile is the nearest-rank q-quantile (0 < q <= 1) of an ascending
// slice; it returns NaN for an empty one.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	return asc[rank(len(asc), q)-1]
}

// median is the midpoint median of xs (NaN when empty).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLevels are the percentiles the picker chooses among, ascending.
var tailLevels = []float64{50, 75, 90, 95, 99, 99.9}

// pickTail reports the highest percentile of xs that still has at least
// ten samples beyond it, with its value and the sample count. Fewer than
// twenty samples support nothing above the median.
func pickTail(xs []float64) (pct, value float64, n int) {
	s := sorted(xs)
	n = len(s)
	pct = tailLevels[0]
	for _, p := range tailLevels[1:] {
		if n-rank(n, p/100) >= 10 {
			pct = p
		}
	}
	return pct, quantile(s, pct/100), n
}

// spread is the interquartile distance of xs as a share of their median,
// by the same quartiles as Python's statistics.quantiles(xs, n=4).
func spread(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(p float64) float64 { // exclusive method: position p*(n+1)
		pos := p * float64(n+1)
		i := int(math.Floor(pos))
		if i < 1 {
			return s[0]
		}
		if i >= n {
			return s[n-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return (at(0.75) - at(0.25)) / median(s)
}
