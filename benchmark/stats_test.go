package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
		q    float64
		want float64
		ok   bool
	}{
		{"p50 of 20 has 10 above", seq(20), 0.5, 10, true},
		{"p50 of 19 has 9 above", seq(19), 0.5, 10, false},
		{"p90 of 100 has 10 above", seq(100), 0.9, 90, true},
		{"p90 of 99 has 9 above", seq(99), 0.9, 90, false},
		{"q·n exactly integral", seq(10), 0.9, 9, false},
		{"one sample", []float64{7}, 0.5, 7, false},
		{"ties", []float64{1, 2, 2, 2, 3}, 0.5, 2, false},
	} {
		got, ok := percentile(tc.xs, tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("%s: percentile = %v, %v; want %v, %v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
	if minSamples != 100 {
		t.Errorf("minSamples = %d; a p90 needs 100 samples for %d above it", minSamples, minTail)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 9, 3, 7, 2}, 1.75, 7.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestGeomean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 4, 16}, 4},
		{[]float64{2, 8}, 4},
		{[]float64{5}, 5},
		{nil, 0},
	} {
		if got := geomean(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("geomean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
