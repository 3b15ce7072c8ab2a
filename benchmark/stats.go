package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie above a percentile before it may be
// reported: a p90 over 30 samples rests on three values and is mostly noise.
const minTail = 10

// minSamples is the smallest sample count whose nearest-rank p90 has
// minTail samples above it. The timed loops run at least this many ops.
const minSamples = 10 * minTail

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1): the
// smallest sample with at least q·n samples at or below it. ok is false when
// xs is empty or fewer than minTail samples lie above the result.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sortedCopy(xs)
	// The epsilon keeps q·n from rounding up past an exact integer
	// (0.9·10 is 9.000000000000002 in float64).
	rank := int(math.Ceil(q*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= minTail
}

// median returns the middle value of xs, or the mean of the two middle
// values when len(xs) is even; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the same
// exclusive method as Python's statistics.quantiles(xs, n=4), which is how
// the run-to-run spread of a metric is judged. xs needs two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		switch {
		case j < 1:
			j = 1
		case j > len(s)-1:
			j = len(s) - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// geomean returns the geometric mean of xs, all of which must be positive;
// 0 for no samples.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
