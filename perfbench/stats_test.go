package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its argument in place")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n         int
		pct, want float64
	}{
		{5, 100, 5},        // too few for any percentile: the maximum
		{19, 100, 19},      // p50 would leave 9.5 beyond
		{20, 50, 10.5},     // p50 leaves 10
		{40, 75, 30.25},    // p75 leaves 10
		{100, 90, 90.1},    // p90 leaves 10
		{199, 90, 179.2},   // p95 would leave 9.95
		{200, 95, 190.05},  // p95 leaves 10
		{1000, 99, 990.01}, // p99 leaves 10
		{10000, 99.9, 9990.001},
	} {
		pct, got := tailPercentile(seq(c.n))
		if pct != c.pct || math.Abs(got-c.want) > 1e-6 {
			t.Errorf("n=%d: tail p%v = %v, want p%v = %v", c.n, pct, got, c.pct, c.want)
		}
	}
}
