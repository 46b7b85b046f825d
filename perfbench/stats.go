package main

import (
	"math"
	"slices"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median returns the middle value of xs, the mean of the two middle values
// for an even count, and NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four groups,
// computed exactly like Python's statistics.quantiles(xs, n=4) with its
// default exclusive method, so spreads read the same here and in any
// script that checks them.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j, delta := i*m/4, i*m%4
		switch {
		case j < 1:
			q[i-1] = s[0]
		case j >= n:
			q[i-1] = s[n-1]
		default:
			q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
		}
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise measure every bound in BENCHMARK.json is judged against.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100): the
// smallest sample with at least p percent of the samples at or below it.
// With fewer than 100 samples the 99th percentile is the maximum.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// tail returns the highest percentile that still has at least ten samples
// beyond it, and its value; ok is false below eleven samples.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	s := sorted(xs)
	return 100 * float64(n-10) / float64(n), s[n-11], true
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
