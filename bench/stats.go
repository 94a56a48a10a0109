package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) (exclusive method) does, so the spreads the
// harness prints are the spreads the acceptance pipeline computes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}

// percentile returns the p-quantile (0 < p < 1) of an ascending sample by
// nearest rank.
func percentile(sorted []int64, p float64) int64 {
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

// tailPercentiles are the candidates pickTail chooses from, highest first.
var tailPercentiles = []float64{0.99999, 0.9999, 0.999, 0.99, 0.95, 0.9, 0.75}

// pickTail returns the highest candidate percentile that still has at least
// ten samples beyond it, with its value. A sample too small for any
// candidate reports the median (p = 0.5).
func pickTail(sorted []int64) (p float64, v int64) {
	n := len(sorted)
	for _, c := range tailPercentiles {
		rank := int(math.Ceil(c * float64(n)))
		if n-rank >= 10 {
			return c, sorted[rank-1]
		}
	}
	return 0.5, percentile(sorted, 0.5)
}
