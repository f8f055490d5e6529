package main

import (
	"math"
	"sort"
)

// minBeyond is the fewest samples that must lie beyond a reported
// percentile. A p99 over fewer than 1000 samples would be the value of
// a handful of outliers, so the harness refuses it instead of printing
// it.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by nearest
// rank, and whether at least minBeyond samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx], n-1-idx >= minBeyond
}

// median returns the middle value of xs (the mean of the middle two for
// an even count); xs is not modified.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method, the default of Python's
// statistics.quantiles(xs, n=4), so spreads printed here match what an
// external check computes from the same values. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median
// (0 when the median is 0).
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
