package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so every helper must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// The expected cut points are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(5), 1.5, 3, 4.5},
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 1, 1.5, 2},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got, want := spread(seq(10)), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 99, 99},
		{100, 50, 50},
		{1000, 99, 990},
		{6, 99, 6}, // too few samples: the 99th percentile is the maximum
		{6, 50, 3},
	} {
		if got := percentile(seq(tc.n), tc.p); got != tc.want {
			t.Errorf("p%v of 1..%d = %v, want %v", tc.p, tc.n, got, tc.want)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	if _, _, ok := tail(seq(10)); ok {
		t.Error("tail of 10 samples reported a percentile")
	}
	for _, tc := range []struct {
		n         int
		pct, want float64
	}{
		{11, 100.0 / 11, 1},
		{20, 50, 10},
		{1000, 99, 990},
	} {
		pct, v, ok := tail(seq(tc.n))
		if !ok || math.Abs(pct-tc.pct) > 1e-9 || v != tc.want {
			t.Errorf("tail of 1..%d = p%v %v %v, want p%v %v", tc.n, pct, v, ok, tc.pct, tc.want)
		}
	}
}
