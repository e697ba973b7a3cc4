package main

import (
	"math"
	"sort"
)

// percentile returns the exact nearest-rank p-th percentile (0 < p <= 100)
// of an ascending slice: the smallest sample with at least p% of the
// samples at or below it. No interpolation and no buckets, so a reported
// percentile is always a latency that was actually observed.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest-rank index of the p-th percentile among n
// samples.
func rank(n int, p float64) int {
	// The epsilon keeps a product that is a whole number on paper (p99.9
	// of 10 000) from being rounded up by its floating-point dust.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// samplesBeyond reports how many of n samples lie strictly above the
// p-th percentile's rank. A tail percentile is only as trustworthy as
// this count.
func samplesBeyond(n int, p float64) int { return n - rank(n, p) }

// tailLadder is the set of percentiles a tail metric may be fixed at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// highestTail returns the highest ladder percentile that still has at
// least ten of n samples beyond it (50 when even the median does not).
func highestTail(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if samplesBeyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of the values (mean of the middle pair for even counts); 0 for
// an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) does (the default exclusive method),
// so a spread computed here equals the one the driver computes. Needs at
// least two values; fewer return the single value twice.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound is judged against.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}
