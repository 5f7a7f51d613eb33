package main

import (
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles a tail metric may report, highest
// first. p75 and p50 are fallbacks for classes too small to support p90 at
// the workload's run length.
var tailCandidates = []float64{0.999, 0.99, 0.9, 0.75, 0.5}

// minBeyond is how many samples must lie beyond a percentile for it to count
// as measured rather than guessed.
const minBeyond = 10

// tailQuantile picks the highest candidate percentile that still has at
// least minBeyond of n samples beyond it. Workloads call it with the sample
// count they expect at their fixed run length, so the chosen percentile is a
// property of the workload, not of one run's luck.
func tailQuantile(n int) float64 {
	for _, q := range tailCandidates {
		if n-rankIndex(q, n)-1 >= minBeyond {
			return q
		}
	}
	return tailCandidates[len(tailCandidates)-1]
}

// rankIndex is the nearest-rank index of quantile q among n sorted samples.
func rankIndex(q float64, n int) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// quantileMs returns the nearest-rank q-quantile of ds in milliseconds, or
// 0 for no samples. ds is sorted in place.
func quantileMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ms(ds[rankIndex(q, len(ds))])
}

// median returns the median of xs (mean of the middle pair for even
// counts), or 0 for none. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
